#include "lint/checks.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>

namespace aiac::lint {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

bool in_set(const std::string& s, const std::vector<std::string>& set) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool is_test_file(const std::string& path) {
  return basename_of(path).rfind("test_", 0) == 0;
}

bool in_net_dir(const std::string& path) {
  return path.find("/net/") != std::string::npos ||
         path.rfind("net/", 0) == 0;
}

/// Skips `<...>` starting at the `<`, counting angle depth (and skipping
/// balanced parens so `foo<decltype(x)>` survives). Returns one past `>`.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  std::size_t depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], "<")) ++depth;
    else if (is_punct(toks[i], ">") && --depth == 0) return i + 1;
    else if (is_punct(toks[i], "(")) i = skip_balanced(toks, i) - 1;
  }
  return i;
}

/// Per-file index from token position to the enclosing FunctionDef.
class EnclosingIndex {
 public:
  explicit EnclosingIndex(const CodeModel& model) {
    for (const FunctionDef& def : model.functions())
      ranges_[def.file].push_back(&def);
    for (auto& [file, defs] : ranges_) {
      std::sort(defs.begin(), defs.end(),
                [](const FunctionDef* a, const FunctionDef* b) {
                  return a->body_begin < b->body_begin;
                });
    }
  }

  /// Qualified name of the function whose body covers token `i`, or
  /// "(file scope)".
  std::string symbol_at(const SourceFile& file, std::size_t i) const {
    auto it = ranges_.find(&file);
    if (it == ranges_.end()) return "(file scope)";
    // Innermost body wins (local classes); bodies are either nested or
    // disjoint, so the last candidate that covers `i` is innermost.
    const FunctionDef* best = nullptr;
    for (const FunctionDef* def : it->second) {
      if (def->body_begin > i) break;
      if (i < def->body_end) best = def;
    }
    return best ? best->qualified : "(file scope)";
  }

 private:
  std::map<const SourceFile*, std::vector<const FunctionDef*>> ranges_;
};

// ---- alloc: hot-path allocation freedom -------------------------------

const std::vector<std::string>& alloc_call_names() {
  static const std::vector<std::string> kNames = {
      "malloc",      "calloc",      "realloc",       "strdup",
      "aligned_alloc", "posix_memalign", "make_unique", "make_shared",
      "to_string"};
  return kNames;
}

const std::vector<std::string>& growing_member_calls() {
  static const std::vector<std::string> kNames = {
      "push_back", "emplace_back", "emplace", "push_front", "insert",
      "append",    "assign",       "resize",  "reserve"};
  return kNames;
}

/// Callee names the reachability walk does NOT follow. The token call
/// graph links calls to definitions by name alone, and these names are
/// so pervasive as STL/atomic members (`v.size()`, `flag.load()`) that
/// following them links every hot function to every project function
/// that happens to share the name, drowning the report. Allocation
/// *sites* using these names are still flagged (growing_member_calls,
/// alloc_call_names) — only the graph edge is dropped. A project
/// function with one of these names must appear in the registry (or be
/// reached under another name) to be scanned.
const std::vector<std::string>& generic_callee_names() {
  static const std::vector<std::string> kNames = {
      "size",   "empty", "begin",  "end",    "rbegin", "rend",
      "cbegin", "cend",  "data",   "clear",  "front",  "back",
      "at",     "c_str", "length", "substr", "count",  "find",
      "get",    "reset", "swap",   "min",    "max",    "move",
      "forward", "first", "second", "capacity", "load", "store",
      "to_string",
      // `run` matches every driver/engine/benchmark entry point in the
      // repo; the pool dispatch path that actually matters on the hot
      // side (WorkerPool::run, ::work_on, ::worker_loop) is therefore
      // registered explicitly in default_hot_registry().
      "run"};
  return kNames;
}

void scan_body_for_allocs(const FunctionDef& def, const std::string& via,
                          std::vector<Finding>& out) {
  const auto& toks = def.file->tokens;
  const std::size_t end = std::min(def.body_end, toks.size());
  for (std::size_t i = def.body_begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool call_like =
        i + 1 < end && is_punct(toks[i + 1], "(");
    const Token* prev = i > def.body_begin ? &toks[i - 1] : nullptr;
    const bool member =
        prev && (is_punct(*prev, ".") || is_punct(*prev, "->"));

    // The repo's pervasive precondition idiom `if (bad) throw X(...)` is
    // a deliberately cold branch by construction — only unconditional
    // throws in straight-line code report. Guarded means the throw
    // directly follows `)`, `else`, a label `:`, or a `{` opened by one
    // of those. (A body `{` after a parameter list also matches; an
    // unconditionally-throwing helper is a terminal error path anyway.)
    const bool guarded_throw = [&] {
      if (!prev) return false;
      if (is_punct(*prev, ")") || is_punct(*prev, ":") ||
          is_ident(*prev, "else"))
        return true;
      if (is_punct(*prev, "{") && i >= def.body_begin + 2) {
        const Token& before = toks[i - 2];
        return is_punct(before, ")") || is_ident(before, "else");
      }
      return false;
    }();

    std::string what;
    if (t.text == "new" && !(prev && is_ident(*prev, "operator"))) {
      what = "new-expression";
    } else if (t.text == "throw" && !guarded_throw) {
      what = "unconditional throw (allocating unwind path; allowlist if "
             "this branch is deliberately cold)";
    } else if (call_like && in_set(t.text, alloc_call_names())) {
      what = "call to " + t.text + "()";
    } else if (call_like && member && in_set(t.text, growing_member_calls())) {
      what = "growing-container call ." + t.text + "()";
    } else if ((t.text == "string" || t.text == "ostringstream" ||
                t.text == "stringstream") &&
               i >= def.body_begin + 2 && is_punct(toks[i - 1], "::") &&
               is_ident(toks[i - 2], "std")) {
      // `std::string` as a reference/pointer/nested type parameter is
      // fine; a value declaration or temporary is an allocation.
      const Token* next = i + 1 < end ? &toks[i + 1] : nullptr;
      const bool benign =
          next && (is_punct(*next, "&") || is_punct(*next, "*") ||
                   is_punct(*next, ">") || is_punct(*next, "::") ||
                   is_punct(*next, ",") || is_punct(*next, ")"));
      if (!benign) what = "std::" + t.text + " construction";
    }
    if (what.empty()) continue;
    out.push_back({"alloc", def.file->path, t.line, def.qualified,
                   what + " reachable from hot entry point via " + via});
  }
}

}  // namespace

std::vector<std::string> default_hot_registry() {
  return {
      // Iteration lifecycle (algo layer).
      "ProcessorCore::begin_iteration",
      "ProcessorCore::run_iteration",
      "ProcessorCore::finish_iteration",
      "ProcessorCore::ingest_boundary",
      "ProcessorCore::fill_boundary",
      // The thread backend's pooled boundary send (DESIGN.md §10).
      "ThreadEngine::send_boundary",
      // Allocation-free Newton workspace solves (PR 4).
      "scalar_implicit_euler_solve",
      "scalar_implicit_euler_solve_batch",
      "block_implicit_euler_step",
      // Sharded iterate + intra-processor worker pool (PR 7). The pool
      // entries are listed explicitly because `run` is on the generic
      // callee stop-list above.
      "WaveformBlock::iterate",
      "WorkerPool::run",
      "WorkerPool::work_on",
      "WorkerPool::worker_loop",
      // Boundary/migration fill + extract on the waveform block.
      "WaveformBlock::boundary_for_left",
      "WaveformBlock::boundary_for_right",
      "WaveformBlock::extract_for_left",
      "WaveformBlock::extract_for_right",
      // Socket transport steady-state send/receive paths (PR 5).
      "SocketTransport::send_boundary",
      "SocketTransport::send_migration",
      "SocketTransport::send_control",
      "SocketTransport::send_mig_ack",
      "SocketTransport::send_token_request",
      "SocketTransport::send_token_grant",
      "SocketTransport::pump",
      "SocketTransport::flush",
  };
}

void check_hot_alloc(const CodeModel& model, const AllocCheckConfig& config,
                     std::vector<Finding>& out) {
  // Seed the worklist from the registry; remember how each function was
  // reached so findings can cite the chain.
  std::map<const FunctionDef*, std::string> via;
  std::deque<const FunctionDef*> work;
  for (const std::string& root : config.roots) {
    const auto defs = model.by_suffix(root);
    if (defs.empty() && config.require_roots) {
      out.push_back({"alloc", "(registry)", 0, root,
                     "hot entry point matches no function definition — "
                     "stale registry entry disables the check for it"});
      continue;
    }
    for (const FunctionDef* def : defs) {
      if (via.emplace(def, root).second) work.push_back(def);
    }
  }
  while (!work.empty()) {
    const FunctionDef* def = work.front();
    work.pop_front();
    for (const std::string& callee : model.callees(*def)) {
      if (in_set(callee, generic_callee_names())) continue;
      for (const FunctionDef* next : model.by_name(callee)) {
        if (next == def) continue;
        if (via.emplace(next, via[def] + " -> " + next->name).second)
          work.push_back(next);
      }
    }
  }
  std::vector<Finding> raw;
  for (const auto& [def, path] : via) scan_body_for_allocs(*def, path, raw);
  // One finding per site even when several overloads cover the same body.
  std::set<std::string> seen;
  for (Finding& f : raw) {
    const std::string key =
        f.file + ":" + std::to_string(f.line) + ":" + f.message;
    if (seen.insert(key).second) out.push_back(std::move(f));
  }
}

// ---- lock: raw mutexes, rank inversions, blocking under locks ---------

namespace {

const std::vector<std::string>& raw_mutex_names() {
  static const std::vector<std::string> kNames = {
      "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
      "recursive_timed_mutex"};
  return kNames;
}

/// First pass over a file: ranks of OrderedMutex variables that are
/// constructed or set_rank()ed with a literal. Non-literal ranks (the
/// engine's `2 + p`) stay unknown — the runtime check still covers them.
std::map<std::string, unsigned> literal_ranks(const SourceFile& file) {
  std::map<std::string, unsigned> ranks;
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
    if (is_ident(toks[i], "OrderedMutex") &&
        toks[i + 1].kind == TokKind::kIdentifier &&
        (is_punct(toks[i + 2], "(") || is_punct(toks[i + 2], "{")) &&
        toks[i + 3].kind == TokKind::kNumber &&
        (is_punct(toks[i + 4], ")") || is_punct(toks[i + 4], "}"))) {
      ranks[toks[i + 1].text] =
          static_cast<unsigned>(std::stoul(toks[i + 3].text));
    }
    if (is_ident(toks[i + 1], "set_rank") &&
        (is_punct(toks[i], ".") || is_punct(toks[i], "->")) && i > 0 &&
        toks[i - 1].kind == TokKind::kIdentifier &&
        is_punct(toks[i + 2], "(") &&
        toks[i + 3].kind == TokKind::kNumber &&
        is_punct(toks[i + 4], ")")) {
      ranks[toks[i - 1].text] =
          static_cast<unsigned>(std::stoul(toks[i + 3].text));
    }
  }
  return ranks;
}

struct HeldGuard {
  std::size_t depth = 0;
  std::string var;
  std::optional<unsigned> rank;
  bool ordered = false;
};

const std::vector<std::string>& guard_type_names() {
  static const std::vector<std::string> kNames = {"lock_guard", "unique_lock",
                                                  "scoped_lock"};
  return kNames;
}

bool is_blocking_member(const std::string& name) {
  return name == "wait" || name == "wait_for" || name == "wait_until" ||
         name == "acquire";
}

bool is_blocking_free(const std::string& name) {
  return name == "sleep_for" || name == "sleep_until";
}

bool is_blocking_syscall(const std::string& name) {
  return name == "poll" || name == "select" || name == "recv" ||
         name == "send" || name == "accept" || name == "connect" ||
         name == "read" || name == "write" || name == "recvmsg" ||
         name == "sendmsg";
}

void check_function_locks(const FunctionDef& def,
                          const std::map<std::string, unsigned>& ranks,
                          std::vector<Finding>& out) {
  const auto& toks = def.file->tokens;
  const std::size_t end = std::min(def.body_end, toks.size());
  std::vector<HeldGuard> held;
  std::size_t depth = 0;

  auto acquire = [&](const std::string& var, bool ordered) {
    HeldGuard g;
    g.depth = depth;
    g.var = var;
    g.ordered = ordered;
    auto it = ranks.find(var);
    if (it != ranks.end()) g.rank = it->second;
    if (g.rank) {
      for (const HeldGuard& h : held) {
        if (h.rank && *g.rank <= *h.rank) {
          out.push_back(
              {"lock", def.file->path, toks[def.body_begin].line,
               def.qualified,
               "lock-order inversion: acquiring '" + var + "' (rank " +
                   std::to_string(*g.rank) + ") while holding '" + h.var +
                   "' (rank " + std::to_string(*h.rank) + ")"});
        }
      }
    }
    held.push_back(std::move(g));
  };

  for (std::size_t i = def.body_begin; i < end; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      ++depth;
      continue;
    }
    if (is_punct(t, "}")) {
      if (depth > 0) --depth;
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const HeldGuard& g) {
                                  return g.depth > depth;
                                }),
                 held.end());
      continue;
    }
    if (t.kind != TokKind::kIdentifier) continue;

    // Guard declarations: lock_guard<...> name(args) / {args}.
    if (in_set(t.text, guard_type_names()) && i + 1 < end &&
        is_punct(toks[i + 1], "<")) {
      const std::size_t args_begin = skip_angles(toks, i + 1);
      bool ordered = false;
      for (std::size_t j = i + 1; j < args_begin; ++j)
        if (is_ident(toks[j], "OrderedMutex")) ordered = true;
      std::size_t j = args_begin;
      if (j < end && toks[j].kind == TokKind::kIdentifier) ++j;  // guard name
      if (j < end && (is_punct(toks[j], "(") || is_punct(toks[j], "{"))) {
        const std::size_t close = skip_balanced(toks, j);
        // Mutex arguments: the last identifier of each `a.b.mu` chain.
        std::string last;
        for (std::size_t k = j + 1; k + 1 < close; ++k) {
          if (toks[k].kind == TokKind::kIdentifier) last = toks[k].text;
          if (is_punct(toks[k], ",") && !last.empty()) {
            acquire(last, ordered);
            last.clear();
          }
        }
        if (!last.empty()) acquire(last, ordered);
        const std::size_t line = t.line;
        (void)line;
        i = close - 1;
        continue;
      }
    }

    const Token* prev = i > def.body_begin ? &toks[i - 1] : nullptr;
    const bool member =
        prev && (is_punct(*prev, ".") || is_punct(*prev, "->"));
    const bool global = prev && is_punct(*prev, "::") &&
                        (i < 2 || toks[i - 2].kind != TokKind::kIdentifier);

    // Explicit lock()/unlock() on a ranked mutex variable.
    if (member && i >= def.body_begin + 2 &&
        toks[i - 2].kind == TokKind::kIdentifier &&
        ranks.count(toks[i - 2].text) != 0) {
      if (t.text == "lock") {
        acquire(toks[i - 2].text, true);
        continue;
      }
      if (t.text == "unlock") {
        const std::string& var = toks[i - 2].text;
        for (auto it = held.rbegin(); it != held.rend(); ++it) {
          if (it->var == var) {
            held.erase(std::next(it).base());
            break;
          }
        }
        continue;
      }
    }

    // Blocking calls while an OrderedMutex guard is syntactically held.
    const bool any_ordered_held =
        std::any_of(held.begin(), held.end(),
                    [](const HeldGuard& g) { return g.ordered; });
    if (!any_ordered_held) continue;
    const bool call_like = i + 1 < end && is_punct(toks[i + 1], "(");
    if (!call_like) continue;
    std::string what;
    if (member && is_blocking_member(t.text)) {
      what = "." + t.text + "()";
    } else if (is_blocking_free(t.text)) {
      what = t.text + "()";
    } else if (global && is_blocking_syscall(t.text)) {
      what = "::" + t.text + "()";
    }
    if (what.empty()) continue;
    std::string holders;
    for (const HeldGuard& g : held) {
      if (!g.ordered) continue;
      if (!holders.empty()) holders += ", ";
      holders += g.var;
      if (g.rank) holders += " (rank " + std::to_string(*g.rank) + ")";
    }
    out.push_back({"lock", def.file->path, t.line, def.qualified,
                   "blocking call " + what +
                       " while holding OrderedMutex " + holders});
  }
}

}  // namespace

void check_lock_discipline(const CodeModel& model,
                           const LockCheckConfig& config,
                           std::vector<Finding>& out) {
  EnclosingIndex enclosing(model);
  for (const SourceFile& file : model.files()) {
    if (is_test_file(file.path)) continue;
    const bool exempt_raw =
        std::any_of(config.raw_mutex_exempt.begin(),
                    config.raw_mutex_exempt.end(),
                    [&](const std::string& frag) {
                      return file.path.find(frag) != std::string::npos;
                    });
    const auto& toks = file.tokens;
    if (!exempt_raw) {
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (is_ident(toks[i], "std") && is_punct(toks[i + 1], "::") &&
            toks[i + 2].kind == TokKind::kIdentifier &&
            in_set(toks[i + 2].text, raw_mutex_names())) {
          out.push_back(
              {"lock", file.path, toks[i + 2].line,
               enclosing.symbol_at(file, i),
               "raw std::" + toks[i + 2].text +
                   " outside src/runtime/ — use runtime::OrderedMutex "
                   "so lock-order inversions abort instead of deadlock"});
        }
      }
    }
  }
  for (const FunctionDef& def : model.functions()) {
    if (is_test_file(def.file->path)) continue;
    const auto ranks = literal_ranks(*def.file);
    check_function_locks(def, ranks, out);
  }
}

// ---- wire: serialization hygiene and FrameType exhaustiveness ---------

namespace {

struct Enumerator {
  std::string name;
  std::size_t line = 0;
  const SourceFile* file = nullptr;
};

/// Parses `enum class FrameType ... { k... };` wherever it appears.
std::vector<Enumerator> find_frame_type_enum(const CodeModel& model) {
  std::vector<Enumerator> out;
  for (const SourceFile& file : model.files()) {
    if (is_test_file(file.path) || !in_net_dir(file.path)) continue;
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "enum")) continue;
      std::size_t j = i + 1;
      if (j < toks.size() && (is_ident(toks[j], "class") ||
                              is_ident(toks[j], "struct")))
        ++j;
      if (j >= toks.size() || !is_ident(toks[j], "FrameType")) continue;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";"))
        ++j;
      if (j >= toks.size() || !is_punct(toks[j], "{")) continue;
      const std::size_t close = skip_balanced(toks, j);
      bool expecting = true;  // start of an enumerator
      for (std::size_t k = j + 1; k + 1 < close; ++k) {
        if (expecting && toks[k].kind == TokKind::kIdentifier) {
          out.push_back({toks[k].text, toks[k].line, &file});
          expecting = false;
        } else if (is_punct(toks[k], ",")) {
          expecting = true;
        }
      }
      return out;  // one FrameType enum per tree
    }
  }
  return out;
}

/// Collects `FrameType::kX` mentions inside the parens of calls to any
/// function named in `calls`.
void collect_call_mentions(const SourceFile& file,
                           const std::vector<std::string>& calls,
                           std::set<std::string>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        !in_set(toks[i].text, calls) || !is_punct(toks[i + 1], "("))
      continue;
    const std::size_t close = skip_balanced(toks, i + 1);
    for (std::size_t k = i + 2; k + 2 < close; ++k) {
      if (is_ident(toks[k], "FrameType") && is_punct(toks[k + 1], "::") &&
          toks[k + 2].kind == TokKind::kIdentifier)
        out.insert(toks[k + 2].text);
    }
  }
}

void collect_parser_mentions(const SourceFile& file,
                             std::set<std::string>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "FrameType") || !is_punct(toks[i + 1], "::") ||
        toks[i + 2].kind != TokKind::kIdentifier)
      continue;
    const bool case_label = i > 0 && is_ident(toks[i - 1], "case");
    const bool compared =
        (i > 0 && (is_punct(toks[i - 1], "==") ||
                   is_punct(toks[i - 1], "!="))) ||
        (i + 3 < toks.size() && (is_punct(toks[i + 3], "==") ||
                                 is_punct(toks[i + 3], "!=")));
    if (case_label || compared) out.insert(toks[i + 2].text);
  }
}

void collect_any_mentions(const SourceFile& file, std::set<std::string>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (is_ident(toks[i], "FrameType") && is_punct(toks[i + 1], "::") &&
        toks[i + 2].kind == TokKind::kIdentifier)
      out.insert(toks[i + 2].text);
  }
}

bool fixed_width_exempt(const Token& t, const Token* next) {
  // `unsigned char` / `signed char` are byte types; allow them.
  return (t.text == "unsigned" || t.text == "signed") && next &&
         is_ident(*next, "char");
}

void check_wire_file(const SourceFile& file, const EnclosingIndex& enclosing,
                     std::vector<Finding>& out) {
  const auto& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;

    if (t.text == "reinterpret_cast" && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "<")) {
      const std::size_t args = skip_angles(toks, i + 1);
      bool sockaddr_cast = false;
      for (std::size_t j = i + 1; j < args; ++j)
        if (toks[j].kind == TokKind::kIdentifier &&
            toks[j].text.find("sockaddr") != std::string::npos)
          sockaddr_cast = true;
      if (!sockaddr_cast && args < toks.size() &&
          is_punct(toks[args], "(") && args + 1 < toks.size() &&
          is_punct(toks[args + 1], "&")) {
        out.push_back(
            {"wire", file.path, t.line, enclosing.symbol_at(file, i),
             "reinterpret_cast of an object's address to a byte view — "
             "serialize field-by-field through WireWriter/WireReader "
             "(host layout and endianness must never reach the wire)"});
      }
      continue;
    }

    if ((t.text == "memcpy" || t.text == "memmove") &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      out.push_back(
          {"wire", file.path, t.line, enclosing.symbol_at(file, i),
           t.text + "() in net code — frame bytes go through "
           "WireWriter/WireReader, which fix width and endianness"});
    }
  }

  // Non-fixed-width integer members in wire structs (files named wire.*).
  if (basename_of(file.path).rfind("wire", 0) != 0) return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "struct") && !is_ident(toks[i], "class")) continue;
    std::size_t j = i + 1;
    while (j < toks.size() && !is_punct(toks[j], "{") &&
           !is_punct(toks[j], ";")) {
      if (is_punct(toks[j], "(")) { j = skip_balanced(toks, j); continue; }
      ++j;
    }
    if (j >= toks.size() || !is_punct(toks[j], "{")) continue;
    const std::size_t close = skip_balanced(toks, j);
    bool statement_start = true;
    for (std::size_t k = j + 1; k + 1 < close; ++k) {
      const Token& t = toks[k];
      if (is_punct(t, "{")) { k = skip_balanced(toks, k) - 1; continue; }
      if (is_punct(t, ";") || is_punct(t, ":")) {
        statement_start = true;
        continue;
      }
      if (!statement_start) continue;
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "const" || t.text == "static" || t.text == "mutable" ||
           t.text == "constexpr" || t.text == "inline"))
        continue;  // stay at statement start across decl-specifiers
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "int" || t.text == "long" || t.text == "short" ||
           t.text == "unsigned" || t.text == "signed") &&
          !fixed_width_exempt(t, k + 1 < close ? &toks[k + 1] : nullptr)) {
        out.push_back(
            {"wire", file.path, t.line, enclosing.symbol_at(file, k),
             "non-fixed-width integer `" + t.text +
                 "` in a wire struct — use std::uintN_t so the layout "
                 "cannot drift across hosts"});
      }
      statement_start = false;
    }
    i = close - 1;
  }
}

}  // namespace

void check_wire_hygiene(const CodeModel& model, std::vector<Finding>& out) {
  EnclosingIndex enclosing(model);
  for (const SourceFile& file : model.files()) {
    if (!in_net_dir(file.path) || is_test_file(file.path)) continue;
    check_wire_file(file, enclosing, out);
  }

  const std::vector<Enumerator> enumerators = find_frame_type_enum(model);
  if (enumerators.empty()) return;

  std::set<std::string> serialized, parsed, golden;
  bool have_test_file = false;
  for (const SourceFile& file : model.files()) {
    if (is_test_file(file.path)) {
      have_test_file = true;
      collect_any_mentions(file, golden);
      continue;
    }
    if (!in_net_dir(file.path)) continue;
    collect_call_mentions(
        file, {"begin_frame", "encode_empty", "encode_empty_sg",
               "start_frame_header"},
        serialized);
    collect_parser_mentions(file, parsed);
  }
  for (const Enumerator& e : enumerators) {
    if (serialized.count(e.name) == 0) {
      out.push_back({"wire", e.file->path, e.line, "FrameType::" + e.name,
                     "FrameType::" + e.name +
                         " has no serializer (no begin_frame/encode_empty "
                         "site names it)"});
    }
    if (parsed.count(e.name) == 0) {
      out.push_back({"wire", e.file->path, e.line, "FrameType::" + e.name,
                     "FrameType::" + e.name +
                         " has no parser case (no switch case or "
                         "header-type comparison names it)"});
    }
    if (have_test_file && golden.count(e.name) == 0) {
      out.push_back({"wire", e.file->path, e.line, "FrameType::" + e.name,
                     "FrameType::" + e.name +
                         " has no golden-frame reference in the wire "
                         "test — pin its byte layout"});
    }
  }
}

}  // namespace aiac::lint
