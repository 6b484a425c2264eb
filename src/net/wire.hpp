// The socket backend's binary wire format.
//
// Every message is one length-prefixed frame:
//
//   offset  size  field
//   0       4     magic "AIAC" (0x43 0x41 0x49 0x41 on the wire: u32 LE)
//   4       2     wire-format version (kWireVersion)
//   6       2     FrameType
//   8       4     payload length in bytes
//   12      4     CRC-32 of bytes [4, 12) (version+type+length) + payload
//   16      n     payload
//
// All integers travel little-endian regardless of host byte order, widths
// fixed on the wire (std::size_t fields as u64, bools and enums as u8);
// doubles travel as the little-endian bytes of their IEEE-754 bit pattern,
// so a round-trip is bitwise exact. Decoders never trust the peer: frames
// with a bad magic/version/type, an oversized length, a CRC mismatch, or a
// payload whose internal sizes disagree with its length are rejected with
// DecodeStatus::kBad — never by crashing, and never by allocating ahead of
// validation. A frame still arriving reports kNeedMore.
//
// Layout changes require bumping kWireVersion; tests/test_net_wire.cpp
// pins the byte layout with golden vectors so an accidental change fails
// loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <array>

#include "algo/runtime_ifaces.hpp"
#include "ode/boundary_delta.hpp"
#include "ode/waveform_block.hpp"
#include "trace/execution_trace.hpp"

namespace aiac::net {

inline constexpr std::uint32_t kWireMagic = 0x43414941u;  // "AIAC" LE
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on one payload: a migration of a whole 10^6-component
/// problem at 10^3 points per row is ~8 GB and a bug, not a workload; 64
/// MiB comfortably covers every legitimate frame while bounding what a
/// corrupt length field can make a receiver buffer.
inline constexpr std::size_t kMaxFramePayloadBytes = 64u << 20;

enum class FrameType : std::uint16_t {
  kHello = 1,        // connection handshake: sender rank + fleet size
  kBoundary = 2,     // ode::BoundaryMessage (ghost rows)
  kMigration = 3,    // ode::MigrationPayload (LB transfer)
  kControl = 4,      // algo::ControlFrame (convergence detection)
  kMigAck = 5,       // migration absorbed; the link is free again
  kTokenRequest = 6, // ask for the link's migration token
  kTokenGrant = 7,   // hand the link's migration token over
  kGoodbye = 8,      // orderly shutdown: no further frames follow
  kWorkerResult = 9, // worker -> launcher: result summary + solution rows
  kTraceIterations = 10,  // worker -> launcher: per-rank trace records
  kTraceMessages = 11,
  kTraceMigrations = 12,
  kBoundaryDelta = 13,    // ode::BoundaryDeltaMessage (thinned ghost rows)
  kTraceComms = 14,       // worker -> launcher: per-link comms totals
};

/// True for values that name an actual FrameType enumerator.
bool frame_type_known(std::uint16_t raw) noexcept;

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  FrameType type = FrameType::kHello;
  std::uint32_t length = 0;  // payload bytes
  /// CRC-32 over version+type+length then the payload, so a bit flip in
  /// any header field past the magic fails the checksum instead of
  /// silently renaming the frame type.
  std::uint32_t crc = 0;
};

/// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320), the checksum in
/// every frame header.
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;
/// Incremental form: crc32(ab) == crc32_update(crc32_update(0, a), b).
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data) noexcept;

// ---- Primitive encode/decode ----------------------------------------

/// Appends primitives to a byte buffer, little-endian.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(&out) {}
  /// CRC-fused variant: every appended byte also advances `crc` through
  /// the incremental crc32_update chain, so the sized-frame encoders
  /// checksum the payload in the same pass that writes it. (The
  /// begin_frame/end_frame path instead re-walks the payload at
  /// end_frame.)
  WireWriter(std::vector<std::uint8_t>& out, std::uint32_t& crc)
      : out_(&out), crc_(&crc) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void doubles(std::span<const double> values);
  void str(const std::string& s);  // u64 length + raw bytes

 private:
  void append(const std::uint8_t* data, std::size_t n);
  std::vector<std::uint8_t>* out_;
  std::uint32_t* crc_ = nullptr;
};

/// Bounds-checked reads over a payload span. Any out-of-range read flips
/// the sticky `ok()` flag and returns zeroes; callers check once at the
/// end (and must also verify the payload was fully consumed).
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::size_t size();
  /// Reads `count` doubles into `out` (resized; capacity reused).
  void doubles(std::size_t count, std::vector<double>& out);
  std::string str();

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// ok() and every payload byte consumed — the full-frame validity check.
  bool done() const noexcept { return ok_ && remaining() == 0; }

 private:
  bool take(std::size_t n) noexcept;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Frame assembly ---------------------------------------------------

/// Writes a frame header placeholder for `type` and returns the payload
/// start offset; end_frame patches length and CRC once the payload has
/// been appended. Encoding into a recycled buffer keeps the per-iteration
/// send path allocation-free after warm-up.
std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type);
void end_frame(std::vector<std::uint8_t>& out, std::size_t payload_start);

/// A complete 16-byte frame header as its own block — the first iovec of
/// a scatter-gather send, paired with a pooled payload buffer.
using FrameHeaderArray = std::array<std::uint8_t, kFrameHeaderBytes>;

/// Single-pass scatter-gather frame assembly. The payload length is
/// declared up front, so the whole header except the CRC field is written
/// immediately and the return value seeds the CRC chain over the
/// version/type/length bytes; stream the payload through a CRC-fused
/// WireWriter from that seed, then patch the checksum with
/// finish_frame_header. Unlike begin_frame/end_frame, every payload byte
/// is walked exactly once, and header and payload can live in separate
/// buffers (writev sends them without reassembly).
std::uint32_t start_frame_header(FrameHeaderArray& header, FrameType type,
                                 std::size_t payload_len);
void finish_frame_header(FrameHeaderArray& header, std::uint32_t crc);

enum class DecodeStatus {
  kOk,        // one whole valid frame extracted
  kNeedMore,  // buffer holds a frame prefix; read more bytes
  kBad,       // malformed (magic/version/type/length/CRC); drop the peer
};

struct FrameView {
  FrameHeader header;
  std::span<const std::uint8_t> payload;  // into the caller's buffer
  std::size_t frame_bytes = 0;            // header + payload, to consume
};

/// Tries to read one frame from the front of `buffer` (a connection's
/// receive accumulation). Validates magic, version, type, length bound
/// and payload CRC before exposing the payload.
DecodeStatus try_extract_frame(std::span<const std::uint8_t> buffer,
                               FrameView& view);

// ---- Message payloads -------------------------------------------------
// Each encode_* appends one complete frame (header included) to `out`;
// each decode_* parses a payload span already validated by
// try_extract_frame, returning false on any internal inconsistency
// (sizes that disagree with the payload length, unknown enum values).
// Decoded rows reuse the capacity of the caller's vectors.

/// Capability bits a Hello carries (bitwise OR). Every worker is forked
/// from one launcher with one EngineConfig, so both ends of a link hold
/// the same bits; the listener rejects a Hello whose bits differ from its
/// own (and a Hello without the features word) instead of negotiating.
inline constexpr std::uint64_t kFeatureDeltaBoundary = 1;

struct Hello {
  std::size_t rank = 0;
  std::size_t processors = 0;
  std::uint64_t features = 0;
};

void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out);
bool decode_hello(std::span<const std::uint8_t> payload, Hello& hello);

void encode_boundary(const ode::BoundaryMessage& msg,
                     std::vector<std::uint8_t>& out);
bool decode_boundary(std::span<const std::uint8_t> payload,
                     ode::BoundaryMessage& msg);
/// Scatter-gather form: header into `header`, payload appended to
/// `payload` (a pooled buffer), CRC fused into the encode pass.
void encode_boundary_sg(const ode::BoundaryMessage& msg,
                        FrameHeaderArray& header,
                        std::vector<std::uint8_t>& payload);

void encode_boundary_delta(const ode::BoundaryDeltaMessage& msg,
                           std::vector<std::uint8_t>& out);
bool decode_boundary_delta(std::span<const std::uint8_t> payload,
                           ode::BoundaryDeltaMessage& msg);
void encode_boundary_delta_sg(const ode::BoundaryDeltaMessage& msg,
                              FrameHeaderArray& header,
                              std::vector<std::uint8_t>& payload);

void encode_migration(const ode::MigrationPayload& payload,
                      std::vector<std::uint8_t>& out);
bool decode_migration(std::span<const std::uint8_t> data,
                      ode::MigrationPayload& payload);
void encode_migration_sg(const ode::MigrationPayload& payload,
                         FrameHeaderArray& header,
                         std::vector<std::uint8_t>& body);

void encode_control(const algo::ControlFrame& frame,
                    std::vector<std::uint8_t>& out);
bool decode_control(std::span<const std::uint8_t> payload,
                    algo::ControlFrame& frame);
void encode_control_sg(const algo::ControlFrame& frame,
                       FrameHeaderArray& header,
                       std::vector<std::uint8_t>& payload);

/// Frames whose payload is empty (acks, token handshake).
void encode_empty(FrameType type, std::vector<std::uint8_t>& out);
void encode_empty_sg(FrameType type, FrameHeaderArray& header);

/// Goodbye carries one flag: whether the sender is aborting (budget
/// exhausted, peer lost) rather than halting on detected convergence.
void encode_goodbye(bool failed, std::vector<std::uint8_t>& out);
bool decode_goodbye(std::span<const std::uint8_t> payload, bool& failed);
void encode_goodbye_sg(bool failed, FrameHeaderArray& header,
                       std::vector<std::uint8_t>& payload);

// ---- Launcher-side aggregation payloads -------------------------------

/// What one worker process reports back over its result pipe: the local
/// block's final rows plus every counter the launcher folds into the
/// combined core::EngineResult.
struct WorkerResult {
  std::size_t rank = 0;
  bool converged = false;
  std::string failure_reason;
  std::size_t iterations = 0;
  std::size_t first = 0;   // first owned global component
  std::size_t count = 0;   // owned component count
  std::size_t points = 0;  // values per row
  double last_residual = 0.0;
  double total_work = 0.0;
  std::size_t data_messages = 0;
  std::size_t control_messages = 0;
  std::size_t bytes_sent = 0;
  std::size_t migrations_out = 0;
  std::size_t components_out = 0;
  std::size_t min_components_seen = 0;
  double detection_max_residual = -1.0;
  double max_pending_disturbance = -1.0;
  std::vector<double> rows;  // count * points, packed row-major

  bool failed() const noexcept { return !failure_reason.empty(); }
};

void encode_worker_result(const WorkerResult& result,
                          std::vector<std::uint8_t>& out);
bool decode_worker_result(std::span<const std::uint8_t> payload,
                          WorkerResult& result);

void encode_trace_iterations(
    std::span<const trace::IterationRecord> records,
    std::vector<std::uint8_t>& out);
bool decode_trace_iterations(std::span<const std::uint8_t> payload,
                             std::vector<trace::IterationRecord>& records);

void encode_trace_messages(std::span<const trace::MessageRecord> records,
                           std::vector<std::uint8_t>& out);
bool decode_trace_messages(std::span<const std::uint8_t> payload,
                           std::vector<trace::MessageRecord>& records);

void encode_trace_migrations(
    std::span<const trace::MigrationRecord> records,
    std::vector<std::uint8_t>& out);
bool decode_trace_migrations(std::span<const std::uint8_t> payload,
                             std::vector<trace::MigrationRecord>& records);

void encode_trace_comms(std::span<const trace::CommsRecord> records,
                        std::vector<std::uint8_t>& out);
bool decode_trace_comms(std::span<const std::uint8_t> payload,
                        std::vector<trace::CommsRecord>& records);

}  // namespace aiac::net
