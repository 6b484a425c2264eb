#include "net/wire.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace aiac::net {

namespace {

/// IEEE 802.3 reflected CRC-32 table, built once.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

std::uint32_t read_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t read_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(static_cast<std::uint32_t>(p[0]) |
                                    (static_cast<std::uint32_t>(p[1]) << 8));
}

/// Patch helpers for end_frame (the header precedes the payload).
void patch_u32(std::vector<std::uint8_t>& out, std::size_t at,
               std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
}

void store_u16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v & 0xFFu);
  at[1] = static_cast<std::uint8_t>(v >> 8);
}

void store_u32(std::uint8_t* at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    at[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
}

}  // namespace

bool frame_type_known(std::uint16_t raw) noexcept {
  return raw >= static_cast<std::uint16_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint16_t>(FrameType::kTraceComms);
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return crc32_update(0, data);
}

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = state ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// ---- WireWriter -------------------------------------------------------

void WireWriter::append(const std::uint8_t* data, std::size_t n) {
  out_->insert(out_->end(), data, data + n);
  if (crc_)
    *crc_ = crc32_update(*crc_, std::span<const std::uint8_t>(data, n));
}

void WireWriter::u8(std::uint8_t v) { append(&v, 1); }

void WireWriter::u16(std::uint16_t v) {
  std::uint8_t b[2];
  store_u16(b, v);
  append(b, 2);
}

void WireWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  store_u32(b, v);
  append(b, 4);
}

void WireWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i)
    b[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
  append(b, 8);
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::doubles(std::span<const double> values) {
  // Bulk path for the row payloads: serialize into a stack block and
  // append whole blocks, so the vector growth and (when fused) the CRC
  // run over spans instead of per-byte push_backs. Endianness stays
  // explicit — no memory-image copies of host doubles reach the wire.
  std::array<std::uint8_t, 512> block;
  std::size_t filled = 0;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i)
      block[filled + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((bits >> (8 * i)) & 0xFFu);
    filled += 8;
    if (filled == block.size()) {
      append(block.data(), filled);
      filled = 0;
    }
  }
  if (filled > 0) append(block.data(), filled);
}

void WireWriter::str(const std::string& s) {
  u64(s.size());
  append(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

// ---- WireReader -------------------------------------------------------

bool WireReader::take(std::size_t n) noexcept {
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t WireReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  if (!take(2)) return 0;
  const std::uint16_t v = read_u16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (!take(4)) return 0;
  const std::uint32_t v = read_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::size_t WireReader::size() {
  const std::uint64_t v = u64();
  if (v > static_cast<std::uint64_t>(SIZE_MAX)) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::size_t>(v);
}

void WireReader::doubles(std::size_t count, std::vector<double>& out) {
  // Overflow-safe bulk bound check, then direct decodes: one range check
  // for the whole block instead of one per double.
  if (!ok_ || count > (data_.size() - pos_) / sizeof(double)) {
    ok_ = false;
    return;
  }
  out.resize(count);
  const std::uint8_t* p = data_.data() + pos_;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    for (int b = 0; b < 8; ++b)
      bits |= static_cast<std::uint64_t>(p[i * 8 + static_cast<std::size_t>(b)])
              << (8 * b);
    out[i] = std::bit_cast<double>(bits);
  }
  pos_ += count * sizeof(double);
}

std::string WireReader::str() {
  const std::size_t n = size();
  if (!take(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

// ---- Frame assembly ---------------------------------------------------

std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type) {
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u32(out, 0);  // length, patched by end_frame
  put_u32(out, 0);  // crc, patched by end_frame
  return out.size();
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t payload_start) {
  const std::size_t length = out.size() - payload_start;
  patch_u32(out, payload_start - 8, static_cast<std::uint32_t>(length));
  // The CRC covers version+type+length plus the payload, so a bit flip in
  // any header field past the magic is caught by the checksum rather than
  // silently reinterpreting the frame (a flipped type byte could name
  // another valid FrameType).
  const std::uint32_t header_crc = crc32_update(
      0, std::span<const std::uint8_t>(out.data() + payload_start - 12, 8));
  patch_u32(out, payload_start - 4,
            crc32_update(header_crc,
                         std::span<const std::uint8_t>(
                             out.data() + payload_start, length)));
}

std::uint32_t start_frame_header(FrameHeaderArray& header, FrameType type,
                                 std::size_t payload_len) {
  store_u32(header.data(), kWireMagic);
  store_u16(header.data() + 4, kWireVersion);
  store_u16(header.data() + 6, static_cast<std::uint16_t>(type));
  store_u32(header.data() + 8, static_cast<std::uint32_t>(payload_len));
  store_u32(header.data() + 12, 0);  // crc, patched by finish_frame_header
  // Seed the chain over version+type+length: the payload writer continues
  // from here, so the checksum is computed in the same pass that encodes.
  return crc32_update(
      0, std::span<const std::uint8_t>(header.data() + 4, 8));
}

void finish_frame_header(FrameHeaderArray& header, std::uint32_t crc) {
  store_u32(header.data() + 12, crc);
}

DecodeStatus try_extract_frame(std::span<const std::uint8_t> buffer,
                               FrameView& view) {
  if (buffer.size() < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  if (read_u32(buffer.data()) != kWireMagic) return DecodeStatus::kBad;
  const std::uint16_t version = read_u16(buffer.data() + 4);
  if (version != kWireVersion) return DecodeStatus::kBad;
  const std::uint16_t raw_type = read_u16(buffer.data() + 6);
  if (!frame_type_known(raw_type)) return DecodeStatus::kBad;
  const std::uint32_t length = read_u32(buffer.data() + 8);
  if (length > kMaxFramePayloadBytes) return DecodeStatus::kBad;
  if (buffer.size() < kFrameHeaderBytes + length)
    return DecodeStatus::kNeedMore;
  const std::uint32_t crc = read_u32(buffer.data() + 12);
  const auto payload = buffer.subspan(kFrameHeaderBytes, length);
  if (crc32_update(crc32_update(0, buffer.subspan(4, 8)), payload) != crc)
    return DecodeStatus::kBad;
  view.header.version = version;
  view.header.type = static_cast<FrameType>(raw_type);
  view.header.length = length;
  view.header.crc = crc;
  view.payload = payload;
  view.frame_bytes = kFrameHeaderBytes + length;
  return DecodeStatus::kOk;
}

// ---- Hello ------------------------------------------------------------

void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kHello);
  WireWriter w(out);
  w.size(hello.rank);
  w.size(hello.processors);
  w.u64(hello.features);
  end_frame(out, start);
}

bool decode_hello(std::span<const std::uint8_t> payload, Hello& hello) {
  WireReader r(payload);
  hello.rank = r.size();
  hello.processors = r.size();
  hello.features = r.u64();
  return r.done() && hello.processors > 0 && hello.rank < hello.processors;
}

// ---- BoundaryMessage --------------------------------------------------

namespace {

void write_boundary_payload(WireWriter& w, const ode::BoundaryMessage& msg) {
  w.size(msg.global_first);
  w.size(msg.row_count);
  w.size(msg.points);
  w.size(msg.sender_iteration);
  w.size(msg.sender_components);
  w.f64(msg.sender_residual);
  w.f64(msg.sender_load);
  w.doubles(msg.rows);
}

}  // namespace

void encode_boundary(const ode::BoundaryMessage& msg,
                     std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kBoundary);
  WireWriter w(out);
  write_boundary_payload(w, msg);
  end_frame(out, start);
}

void encode_boundary_sg(const ode::BoundaryMessage& msg,
                        FrameHeaderArray& header,
                        std::vector<std::uint8_t>& payload) {
  // BoundaryMessage::byte_size() is exactly the wire payload layout (5
  // u64 + 2 f64 + rows), which is what lets the length go into the header
  // before the payload is written.
  std::uint32_t crc = start_frame_header(header, FrameType::kBoundary,
                                         msg.byte_size());
  WireWriter w(payload, crc);
  write_boundary_payload(w, msg);
  finish_frame_header(header, crc);
}

bool decode_boundary(std::span<const std::uint8_t> payload,
                     ode::BoundaryMessage& msg) {
  WireReader r(payload);
  msg.global_first = r.size();
  msg.row_count = r.size();
  msg.points = r.size();
  msg.sender_iteration = r.size();
  msg.sender_components = r.size();
  msg.sender_residual = r.f64();
  msg.sender_load = r.f64();
  if (!r.ok() || r.remaining() % sizeof(double) != 0) return false;
  const std::size_t n_doubles = r.remaining() / sizeof(double);
  // Overflow-safe consistency check: the declared shape must account for
  // exactly the doubles the payload carries.
  if (msg.points == 0 ? n_doubles != 0
                      : msg.row_count != n_doubles / msg.points ||
                            msg.row_count * msg.points != n_doubles)
    return false;
  r.doubles(n_doubles, msg.rows);
  return r.done();
}

// ---- BoundaryDeltaMessage ---------------------------------------------

namespace {

void write_boundary_delta_payload(WireWriter& w,
                                  const ode::BoundaryDeltaMessage& msg) {
  w.size(msg.global_first);
  w.size(msg.row_count);
  w.size(msg.points);
  w.size(msg.sender_iteration);
  w.size(msg.sender_components);
  w.f64(msg.sender_residual);
  w.f64(msg.sender_load);
  w.size(msg.base_epoch);
  w.size(msg.row_indices.size());
  for (const std::size_t idx : msg.row_indices) w.size(idx);
  w.doubles(msg.rows);
}

}  // namespace

void encode_boundary_delta(const ode::BoundaryDeltaMessage& msg,
                           std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kBoundaryDelta);
  WireWriter w(out);
  write_boundary_delta_payload(w, msg);
  end_frame(out, start);
}

void encode_boundary_delta_sg(const ode::BoundaryDeltaMessage& msg,
                              FrameHeaderArray& header,
                              std::vector<std::uint8_t>& payload) {
  std::uint32_t crc = start_frame_header(header, FrameType::kBoundaryDelta,
                                         msg.byte_size());
  WireWriter w(payload, crc);
  write_boundary_delta_payload(w, msg);
  finish_frame_header(header, crc);
}

bool decode_boundary_delta(std::span<const std::uint8_t> payload,
                           ode::BoundaryDeltaMessage& msg) {
  WireReader r(payload);
  msg.global_first = r.size();
  msg.row_count = r.size();
  msg.points = r.size();
  msg.sender_iteration = r.size();
  msg.sender_components = r.size();
  msg.sender_residual = r.f64();
  msg.sender_load = r.f64();
  msg.base_epoch = r.size();
  const std::size_t changed = r.size();
  if (!r.ok() || changed > msg.row_count ||
      changed > r.remaining() / sizeof(std::uint64_t))
    return false;
  msg.row_indices.resize(changed);
  for (std::size_t i = 0; i < changed; ++i) {
    msg.row_indices[i] = r.size();
    // Strictly ascending and in range: a delta can name each row of the
    // full message at most once, in order.
    if (msg.row_indices[i] >= msg.row_count ||
        (i > 0 && msg.row_indices[i] <= msg.row_indices[i - 1]))
      return false;
  }
  if (!r.ok() || r.remaining() % sizeof(double) != 0) return false;
  const std::size_t n_doubles = r.remaining() / sizeof(double);
  if (msg.points == 0 ? n_doubles != 0
                      : changed != n_doubles / msg.points ||
                            changed * msg.points != n_doubles)
    return false;
  r.doubles(n_doubles, msg.rows);
  return r.done();
}

// ---- MigrationPayload -------------------------------------------------

namespace {

void write_migration_payload(WireWriter& w,
                             const ode::MigrationPayload& payload) {
  w.u8(payload.direction == ode::MigrationPayload::Direction::kToLeft ? 0
                                                                      : 1);
  w.size(payload.row_first);
  w.size(payload.owned_count);
  w.size(payload.stencil);
  w.size(payload.points);
  w.doubles(payload.rows);
}

}  // namespace

void encode_migration(const ode::MigrationPayload& payload,
                      std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kMigration);
  WireWriter w(out);
  write_migration_payload(w, payload);
  end_frame(out, start);
}

void encode_migration_sg(const ode::MigrationPayload& payload,
                         FrameHeaderArray& header,
                         std::vector<std::uint8_t>& body) {
  const std::size_t len =
      1 + 4 * sizeof(std::uint64_t) + payload.rows.size() * sizeof(double);
  std::uint32_t crc = start_frame_header(header, FrameType::kMigration, len);
  WireWriter w(body, crc);
  write_migration_payload(w, payload);
  finish_frame_header(header, crc);
}

bool decode_migration(std::span<const std::uint8_t> data,
                      ode::MigrationPayload& payload) {
  WireReader r(data);
  const std::uint8_t direction = r.u8();
  if (direction > 1) return false;
  payload.direction = direction == 0
                          ? ode::MigrationPayload::Direction::kToLeft
                          : ode::MigrationPayload::Direction::kToRight;
  payload.row_first = r.size();
  payload.owned_count = r.size();
  payload.stencil = r.size();
  payload.points = r.size();
  if (!r.ok() || r.remaining() % sizeof(double) != 0) return false;
  const std::size_t n_doubles = r.remaining() / sizeof(double);
  if (payload.owned_count > n_doubles || payload.stencil > n_doubles)
    return false;
  const std::size_t rows = payload.owned_count + payload.stencil;
  if (payload.points == 0 ? n_doubles != 0
                          : rows != n_doubles / payload.points ||
                                rows * payload.points != n_doubles)
    return false;
  r.doubles(n_doubles, payload.rows);
  return r.done();
}

// ---- ControlFrame -----------------------------------------------------

namespace {

/// Kind byte 4 belonged to a removed detection protocol; it stays
/// unassigned so kHalt keeps its byte under the same kWireVersion.
constexpr std::uint8_t kRetiredControlKind = 4;

/// kind u8, sender u64, epoch u64, a reserved u64 (always 0: the removed
/// protocol's counter, kept so every frame stays byte-identical), flag u8.
void write_control_payload(WireWriter& w, const algo::ControlFrame& frame) {
  w.u8(static_cast<std::uint8_t>(frame.kind));
  w.size(frame.sender);
  w.size(frame.epoch);
  w.u64(0);
  w.u8(frame.flag ? 1 : 0);
}

}  // namespace

void encode_control(const algo::ControlFrame& frame,
                    std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kControl);
  WireWriter w(out);
  write_control_payload(w, frame);
  end_frame(out, start);
}

void encode_control_sg(const algo::ControlFrame& frame,
                       FrameHeaderArray& header,
                       std::vector<std::uint8_t>& payload) {
  constexpr std::size_t kLen = 2 + 3 * sizeof(std::uint64_t);
  std::uint32_t crc = start_frame_header(header, FrameType::kControl, kLen);
  WireWriter w(payload, crc);
  write_control_payload(w, frame);
  finish_frame_header(header, crc);
}

bool decode_control(std::span<const std::uint8_t> payload,
                    algo::ControlFrame& frame) {
  WireReader r(payload);
  const std::uint8_t kind = r.u8();
  if (kind == kRetiredControlKind ||
      kind > static_cast<std::uint8_t>(algo::ControlFrame::Kind::kHalt))
    return false;
  frame.kind = static_cast<algo::ControlFrame::Kind>(kind);
  frame.sender = r.size();
  frame.epoch = r.size();
  if (r.u64() != 0) return false;
  const std::uint8_t flag = r.u8();
  if (flag > 1) return false;
  frame.flag = flag == 1;
  return r.done();
}

void encode_empty(FrameType type, std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, type);
  end_frame(out, start);
}

void encode_empty_sg(FrameType type, FrameHeaderArray& header) {
  const std::uint32_t crc = start_frame_header(header, type, 0);
  finish_frame_header(header, crc);
}

void encode_goodbye(bool failed, std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kGoodbye);
  WireWriter w(out);
  w.u8(failed ? 1 : 0);
  end_frame(out, start);
}

void encode_goodbye_sg(bool failed, FrameHeaderArray& header,
                       std::vector<std::uint8_t>& payload) {
  std::uint32_t crc = start_frame_header(header, FrameType::kGoodbye, 1);
  WireWriter w(payload, crc);
  w.u8(failed ? 1 : 0);
  finish_frame_header(header, crc);
}

bool decode_goodbye(std::span<const std::uint8_t> payload, bool& failed) {
  WireReader r(payload);
  const std::uint8_t flag = r.u8();
  if (flag > 1) return false;
  failed = flag == 1;
  return r.done();
}

// ---- WorkerResult -----------------------------------------------------

void encode_worker_result(const WorkerResult& result,
                          std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kWorkerResult);
  WireWriter w(out);
  w.size(result.rank);
  w.u8(result.converged ? 1 : 0);
  w.str(result.failure_reason);
  w.size(result.iterations);
  w.size(result.first);
  w.size(result.count);
  w.size(result.points);
  w.f64(result.last_residual);
  w.f64(result.total_work);
  w.size(result.data_messages);
  w.size(result.control_messages);
  w.size(result.bytes_sent);
  w.size(result.migrations_out);
  w.size(result.components_out);
  w.size(result.min_components_seen);
  w.f64(result.detection_max_residual);
  w.f64(result.max_pending_disturbance);
  w.doubles(result.rows);
  end_frame(out, start);
}

bool decode_worker_result(std::span<const std::uint8_t> payload,
                          WorkerResult& result) {
  WireReader r(payload);
  result.rank = r.size();
  const std::uint8_t converged = r.u8();
  if (converged > 1) return false;
  result.converged = converged == 1;
  result.failure_reason = r.str();
  result.iterations = r.size();
  result.first = r.size();
  result.count = r.size();
  result.points = r.size();
  result.last_residual = r.f64();
  result.total_work = r.f64();
  result.data_messages = r.size();
  result.control_messages = r.size();
  result.bytes_sent = r.size();
  result.migrations_out = r.size();
  result.components_out = r.size();
  result.min_components_seen = r.size();
  result.detection_max_residual = r.f64();
  result.max_pending_disturbance = r.f64();
  if (!r.ok() || r.remaining() % sizeof(double) != 0) return false;
  const std::size_t n_doubles = r.remaining() / sizeof(double);
  if (result.points == 0 ? n_doubles != 0
                         : result.count != n_doubles / result.points ||
                               result.count * result.points != n_doubles)
    return false;
  r.doubles(n_doubles, result.rows);
  return r.done();
}

// ---- Trace records ----------------------------------------------------

void encode_trace_iterations(std::span<const trace::IterationRecord> records,
                             std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kTraceIterations);
  WireWriter w(out);
  w.size(records.size());
  for (const auto& it : records) {
    w.size(it.rank);
    w.size(it.iteration);
    w.f64(it.start);
    w.f64(it.end);
    w.f64(it.work);
    w.f64(it.residual);
    w.size(it.components);
  }
  end_frame(out, start);
}

bool decode_trace_iterations(std::span<const std::uint8_t> payload,
                             std::vector<trace::IterationRecord>& records) {
  WireReader r(payload);
  constexpr std::size_t kRecordBytes = 7 * 8;
  const std::size_t n = r.size();
  if (!r.ok() || n > r.remaining() / kRecordBytes) return false;
  records.resize(n);
  for (auto& it : records) {
    it.rank = r.size();
    it.iteration = r.size();
    it.start = r.f64();
    it.end = r.f64();
    it.work = r.f64();
    it.residual = r.f64();
    it.components = r.size();
  }
  return r.done();
}

void encode_trace_messages(std::span<const trace::MessageRecord> records,
                           std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kTraceMessages);
  WireWriter w(out);
  w.size(records.size());
  for (const auto& m : records) {
    w.size(m.src);
    w.size(m.dst);
    w.f64(m.send_time);
    w.f64(m.receive_time);
    w.size(m.bytes);
    w.u8(static_cast<std::uint8_t>(m.kind));
  }
  end_frame(out, start);
}

bool decode_trace_messages(std::span<const std::uint8_t> payload,
                           std::vector<trace::MessageRecord>& records) {
  WireReader r(payload);
  constexpr std::size_t kRecordBytes = 5 * 8 + 1;
  const std::size_t n = r.size();
  if (!r.ok() || n > r.remaining() / kRecordBytes) return false;
  records.resize(n);
  for (auto& m : records) {
    m.src = r.size();
    m.dst = r.size();
    m.send_time = r.f64();
    m.receive_time = r.f64();
    m.bytes = r.size();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(trace::MessageKind::kControl))
      return false;
    m.kind = static_cast<trace::MessageKind>(kind);
  }
  return r.done();
}

void encode_trace_migrations(std::span<const trace::MigrationRecord> records,
                             std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kTraceMigrations);
  WireWriter w(out);
  w.size(records.size());
  for (const auto& m : records) {
    w.size(m.src);
    w.size(m.dst);
    w.f64(m.time);
    w.size(m.components);
  }
  end_frame(out, start);
}

bool decode_trace_migrations(std::span<const std::uint8_t> payload,
                             std::vector<trace::MigrationRecord>& records) {
  WireReader r(payload);
  constexpr std::size_t kRecordBytes = 4 * 8;
  const std::size_t n = r.size();
  if (!r.ok() || n > r.remaining() / kRecordBytes) return false;
  records.resize(n);
  for (auto& m : records) {
    m.src = r.size();
    m.dst = r.size();
    m.time = r.f64();
    m.components = r.size();
  }
  return r.done();
}

void encode_trace_comms(std::span<const trace::CommsRecord> records,
                        std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out, FrameType::kTraceComms);
  WireWriter w(out);
  w.size(records.size());
  for (const auto& c : records) {
    w.size(c.src);
    w.size(c.dst);
    w.size(c.frames_sent);
    w.size(c.frames_full);
    w.size(c.frames_delta);
    w.size(c.frames_suppressed);
    w.size(c.rows_suppressed);
    w.size(c.bytes_sent);
    w.size(c.bytes_received);
  }
  end_frame(out, start);
}

bool decode_trace_comms(std::span<const std::uint8_t> payload,
                        std::vector<trace::CommsRecord>& records) {
  WireReader r(payload);
  constexpr std::size_t kRecordBytes = 9 * 8;
  const std::size_t n = r.size();
  if (!r.ok() || n > r.remaining() / kRecordBytes) return false;
  records.resize(n);
  for (auto& c : records) {
    c.src = r.size();
    c.dst = r.size();
    c.frames_sent = r.size();
    c.frames_full = r.size();
    c.frames_delta = r.size();
    c.frames_suppressed = r.size();
    c.rows_suppressed = r.size();
    c.bytes_sent = r.size();
    c.bytes_received = r.size();
  }
  return r.done();
}

}  // namespace aiac::net
