// Wire-format tests for the socket backend (src/net/wire.hpp): golden
// byte vectors pinning the layout, 1000-seed round-trip fuzz with bitwise
// equality, and rejection of truncated/corrupted/oversized frames —
// always by status code, never by crashing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace {

using namespace aiac;
using namespace aiac::net;

// ---- Helpers ----------------------------------------------------------

/// Bitwise double equality (NaN-safe; the wire promises bit patterns).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// Random double over the full bit space: denormals, infinities and NaNs
/// included — the wire must carry all of them bit-exactly.
double random_double(std::mt19937_64& rng) {
  return std::bit_cast<double>(rng());
}

std::vector<double> random_rows(std::mt19937_64& rng, std::size_t count) {
  std::vector<double> rows(count);
  for (double& v : rows) v = random_double(rng);
  return rows;
}

/// Extracts the single frame a fresh encode produced, asserting success.
FrameView must_extract(const std::vector<std::uint8_t>& bytes) {
  FrameView view;
  EXPECT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk);
  EXPECT_EQ(view.frame_bytes, bytes.size());
  return view;
}

// ---- CRC-32 ------------------------------------------------------------

TEST(NetWireCrc, CanonicalCheckValue) {
  // The IEEE 802.3 reflected CRC-32 check value: crc32("123456789").
  const std::string data = "123456789";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  EXPECT_EQ(crc32({bytes, data.size()}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(NetWireCrc, MatchesBitwiseReference) {
  // Independent table-free implementation; pins the library's table.
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> data(253);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k)
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  EXPECT_EQ(crc32(data), crc ^ 0xFFFFFFFFu);
}

// ---- Golden byte vectors ----------------------------------------------

TEST(NetWireGolden, EmptyFrameLayout) {
  std::vector<std::uint8_t> bytes;
  encode_empty(FrameType::kMigAck, bytes);
  const std::vector<std::uint8_t> expected = {
      0x41, 0x49, 0x41, 0x43,  // magic "AIAC" as u32 LE 0x43414941
      0x01, 0x00,              // version 1
      0x05, 0x00,              // FrameType::kMigAck
      0x00, 0x00, 0x00, 0x00,  // payload length 0
      0x44, 0x4E, 0x45, 0xF9,  // CRC-32 of version+type+length (LE)
  };
  EXPECT_EQ(bytes, expected);
}

TEST(NetWireGolden, HelloLayout) {
  std::vector<std::uint8_t> bytes;
  encode_hello({/*rank=*/3, /*processors=*/8,
                /*features=*/kFeatureDeltaBoundary},
               bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 24);
  const std::vector<std::uint8_t> payload = {
      0x03, 0, 0, 0, 0, 0, 0, 0,  // rank u64 LE
      0x08, 0, 0, 0, 0, 0, 0, 0,  // processors u64 LE
      0x01, 0, 0, 0, 0, 0, 0, 0,  // features: kFeatureDeltaBoundary
  };
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         bytes.begin() + kFrameHeaderBytes));
  EXPECT_EQ(bytes[6], 0x01);  // FrameType::kHello
  EXPECT_EQ(bytes[8], 24);    // payload length
  // CRC field (algorithm pinned above) covers version+type+length+payload.
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + 12, 4);
  EXPECT_EQ(stored, crc32_update(crc32_update(0, {bytes.data() + 4, 8}),
                                 payload));
}

TEST(NetWireGolden, BoundaryLayout) {
  // Pins field order and widths: 5 x u64, 2 x f64, then the rows.
  ode::BoundaryMessage msg;
  msg.global_first = 0x0102030405060708u;
  msg.row_count = 1;
  msg.points = 2;
  msg.sender_iteration = 7;
  msg.sender_components = 9;
  msg.sender_residual = 1.0;
  msg.sender_load = -2.0;
  msg.rows = {0.5, 2.0};
  std::vector<std::uint8_t> bytes;
  encode_boundary(msg, bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 5 * 8 + 2 * 8 + 2 * 8);
  const std::uint8_t* p = bytes.data() + kFrameHeaderBytes;
  const std::vector<std::uint8_t> head = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // global_first LE
      0x01, 0, 0, 0, 0, 0, 0, 0,                       // row_count
      0x02, 0, 0, 0, 0, 0, 0, 0,                       // points
      0x07, 0, 0, 0, 0, 0, 0, 0,                       // sender_iteration
      0x09, 0, 0, 0, 0, 0, 0, 0,                       // sender_components
      0, 0, 0, 0, 0, 0, 0xF0, 0x3F,                    // 1.0 IEEE-754 LE
      0, 0, 0, 0, 0, 0, 0x00, 0xC0,                    // -2.0
      0, 0, 0, 0, 0, 0, 0xE0, 0x3F,                    // 0.5
      0, 0, 0, 0, 0, 0, 0x00, 0x40,                    // 2.0
  };
  EXPECT_TRUE(std::equal(head.begin(), head.end(), p));
}

TEST(NetWireGolden, ControlLayout) {
  algo::ControlFrame frame;
  frame.kind = algo::ControlFrame::Kind::kVerifyAck;
  frame.sender = 2;
  frame.epoch = 3;
  frame.flag = true;
  std::vector<std::uint8_t> bytes;
  encode_control(frame, bytes);
  const std::vector<std::uint8_t> payload = {
      0x03,                       // Kind::kVerifyAck
      0x02, 0, 0, 0, 0, 0, 0, 0,  // sender
      0x03, 0, 0, 0, 0, 0, 0, 0,  // epoch
      0, 0, 0, 0, 0, 0, 0, 0,     // reserved, always 0
      0x01,                       // flag
  };
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         bytes.begin() + kFrameHeaderBytes));
}

TEST(NetWireGolden, HaltKindByte) {
  // kHalt keeps the byte it had when kind 4 was still assigned.
  algo::ControlFrame frame;
  frame.kind = algo::ControlFrame::Kind::kHalt;
  std::vector<std::uint8_t> bytes;
  encode_control(frame, bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 26);
  EXPECT_EQ(bytes[kFrameHeaderBytes], 0x05);
  algo::ControlFrame decoded;
  ASSERT_TRUE(decode_control(std::span(bytes).subspan(kFrameHeaderBytes),
                             decoded));
  EXPECT_EQ(decoded.kind, algo::ControlFrame::Kind::kHalt);
}

// Independent little-endian reference encoding: the goldens below pin
// field order and widths against these shifts, not against WireWriter.
void ref_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ref_f64(std::vector<std::uint8_t>& out, double v) {
  ref_u64(out, std::bit_cast<std::uint64_t>(v));
}

TEST(NetWireCompat, Legacy16ByteHelloDecodesAsFeatureless) {
  // A peer that predates the features word sends rank + processors only.
  // Decoding must succeed with features == 0 — the negotiation rule then
  // keeps that link on full boundary frames forever, which is the
  // always-correct fallback (deltas need both ends to opt in).
  std::vector<std::uint8_t> payload;
  ref_u64(payload, 3);
  ref_u64(payload, 8);
  Hello hello;
  hello.features = kFeatureDeltaBoundary;  // stale value must be cleared
  ASSERT_TRUE(decode_hello(payload, hello));
  EXPECT_EQ(hello.rank, 3u);
  EXPECT_EQ(hello.processors, 8u);
  EXPECT_EQ(hello.features & kFeatureDeltaBoundary, 0u);
}

TEST(NetWireGolden, TokenRequestLayout) {
  std::vector<std::uint8_t> bytes;
  encode_empty(FrameType::kTokenRequest, bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  EXPECT_EQ(bytes[6], 0x06);  // FrameType::kTokenRequest
  EXPECT_EQ(bytes[7], 0x00);
  EXPECT_EQ(bytes[8], 0x00);  // payload length 0
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + 12, 4);
  EXPECT_EQ(stored, crc32_update(0, {bytes.data() + 4, 8}));
}

TEST(NetWireGolden, GoodbyeLayout) {
  std::vector<std::uint8_t> bytes;
  encode_goodbye(/*failed=*/true, bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 1);
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(FrameType::kGoodbye));
  EXPECT_EQ(bytes[kFrameHeaderBytes], 0x01);  // failed flag
}

TEST(NetWireGolden, WorkerResultLayout) {
  WorkerResult result;
  result.rank = 2;
  result.converged = true;
  result.failure_reason = "x";
  result.iterations = 3;
  result.first = 4;
  result.count = 1;
  result.points = 2;
  result.last_residual = 1.0;
  result.total_work = 2.0;
  result.data_messages = 5;
  result.control_messages = 6;
  result.bytes_sent = 7;
  result.migrations_out = 8;
  result.components_out = 9;
  result.min_components_seen = 10;
  result.detection_max_residual = 0.5;
  result.max_pending_disturbance = -2.0;
  result.rows = {1.0, 2.0};
  std::vector<std::uint8_t> bytes;
  encode_worker_result(result, bytes);

  std::vector<std::uint8_t> expected;
  ref_u64(expected, 2);    // rank
  expected.push_back(1);   // converged
  ref_u64(expected, 1);    // failure_reason length
  expected.push_back('x');
  ref_u64(expected, 3);    // iterations
  ref_u64(expected, 4);    // first
  ref_u64(expected, 1);    // count
  ref_u64(expected, 2);    // points
  ref_f64(expected, 1.0);  // last_residual
  ref_f64(expected, 2.0);  // total_work
  ref_u64(expected, 5);    // data_messages
  ref_u64(expected, 6);    // control_messages
  ref_u64(expected, 7);    // bytes_sent
  ref_u64(expected, 8);    // migrations_out
  ref_u64(expected, 9);    // components_out
  ref_u64(expected, 10);   // min_components_seen
  ref_f64(expected, 0.5);  // detection_max_residual
  ref_f64(expected, -2.0); // max_pending_disturbance
  ref_f64(expected, 1.0);  // rows, row-major
  ref_f64(expected, 2.0);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + expected.size());
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(FrameType::kWorkerResult));
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         bytes.begin() + kFrameHeaderBytes));
}

TEST(NetWireGolden, TraceMessagesLayout) {
  std::vector<trace::MessageRecord> records(1);
  records[0].src = 1;
  records[0].dst = 2;
  records[0].send_time = 0.5;
  records[0].receive_time = 1.0;
  records[0].bytes = 3;
  records[0].kind = trace::MessageKind::kControl;
  std::vector<std::uint8_t> bytes;
  encode_trace_messages(records, bytes);

  std::vector<std::uint8_t> expected;
  ref_u64(expected, 1);    // record count
  ref_u64(expected, 1);    // src
  ref_u64(expected, 2);    // dst
  ref_f64(expected, 0.5);  // send_time
  ref_f64(expected, 1.0);  // receive_time
  ref_u64(expected, 3);    // bytes
  expected.push_back(2);   // MessageKind::kControl
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + expected.size());
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(FrameType::kTraceMessages));
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         bytes.begin() + kFrameHeaderBytes));
}

TEST(NetWireGolden, TraceMigrationsLayout) {
  std::vector<trace::MigrationRecord> records(1);
  records[0].src = 1;
  records[0].dst = 0;
  records[0].time = 2.0;
  records[0].components = 4;
  std::vector<std::uint8_t> bytes;
  encode_trace_migrations(records, bytes);

  std::vector<std::uint8_t> expected;
  ref_u64(expected, 1);    // record count
  ref_u64(expected, 1);    // src
  ref_u64(expected, 0);    // dst
  ref_f64(expected, 2.0);  // time
  ref_u64(expected, 4);    // components
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + expected.size());
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(FrameType::kTraceMigrations));
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         bytes.begin() + kFrameHeaderBytes));
}

TEST(NetWireGolden, BoundaryDeltaLayout) {
  // Pins the delta payload: the 7 BoundaryMessage header fields, the
  // base epoch, the changed-row count, ascending indices, then the rows.
  ode::BoundaryDeltaMessage msg;
  msg.global_first = 5;
  msg.row_count = 4;
  msg.points = 2;
  msg.sender_iteration = 11;
  msg.sender_components = 9;
  msg.sender_residual = 1.0;
  msg.sender_load = -2.0;
  msg.base_epoch = 7;
  msg.row_indices = {1, 3};
  msg.rows = {0.5, 2.0, 1.0, -2.0};
  std::vector<std::uint8_t> bytes;
  encode_boundary_delta(msg, bytes);

  std::vector<std::uint8_t> expected;
  ref_u64(expected, 5);     // global_first
  ref_u64(expected, 4);     // row_count (of the full message this thins)
  ref_u64(expected, 2);     // points
  ref_u64(expected, 11);    // sender_iteration
  ref_u64(expected, 9);     // sender_components
  ref_f64(expected, 1.0);   // sender_residual
  ref_f64(expected, -2.0);  // sender_load
  ref_u64(expected, 7);     // base_epoch
  ref_u64(expected, 2);     // changed-row count
  ref_u64(expected, 1);     // row index 1
  ref_u64(expected, 3);     // row index 3
  ref_f64(expected, 0.5);   // rows, row-major
  ref_f64(expected, 2.0);
  ref_f64(expected, 1.0);
  ref_f64(expected, -2.0);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + expected.size());
  ASSERT_EQ(expected.size(), msg.byte_size());  // accounting matches wire
  EXPECT_EQ(bytes[6],
            static_cast<std::uint8_t>(FrameType::kBoundaryDelta));
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         bytes.begin() + kFrameHeaderBytes));
}

TEST(NetWireGolden, TraceCommsLayout) {
  std::vector<trace::CommsRecord> records(1);
  records[0].src = 1;
  records[0].dst = 2;
  records[0].frames_sent = 10;
  records[0].frames_full = 3;
  records[0].frames_delta = 7;
  records[0].frames_suppressed = 2;
  records[0].rows_suppressed = 40;
  records[0].bytes_sent = 1000;
  records[0].bytes_received = 900;
  std::vector<std::uint8_t> bytes;
  encode_trace_comms(records, bytes);

  std::vector<std::uint8_t> expected;
  ref_u64(expected, 1);     // record count
  ref_u64(expected, 1);     // src
  ref_u64(expected, 2);     // dst
  ref_u64(expected, 10);    // frames_sent
  ref_u64(expected, 3);     // frames_full
  ref_u64(expected, 7);     // frames_delta
  ref_u64(expected, 2);     // frames_suppressed
  ref_u64(expected, 40);    // rows_suppressed
  ref_u64(expected, 1000);  // bytes_sent
  ref_u64(expected, 900);   // bytes_received
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + expected.size());
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(FrameType::kTraceComms));
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         bytes.begin() + kFrameHeaderBytes));
}

// ---- Round-trip fuzz ---------------------------------------------------

ode::BoundaryMessage random_boundary(std::mt19937_64& rng) {
  ode::BoundaryMessage msg;
  msg.global_first = rng() % 1000;
  msg.row_count = rng() % 4;
  msg.points = msg.row_count == 0 ? 0 : 1 + rng() % 33;
  msg.sender_residual = random_double(rng);
  msg.sender_load = random_double(rng);
  msg.sender_iteration = rng() % 100000;
  msg.sender_components = rng() % 1000;
  msg.rows = random_rows(rng, msg.row_count * msg.points);
  return msg;
}

ode::BoundaryDeltaMessage random_delta(std::mt19937_64& rng) {
  ode::BoundaryDeltaMessage msg;
  msg.global_first = rng() % 1000;
  msg.row_count = 1 + rng() % 6;
  msg.points = 1 + rng() % 17;
  msg.sender_iteration = rng() % 100000;
  msg.sender_components = rng() % 1000;
  msg.sender_residual = random_double(rng);
  msg.sender_load = random_double(rng);
  msg.base_epoch = rng() % 100000;
  // Ascending unique subset of [0, row_count).
  for (std::size_t i = 0; i < msg.row_count; ++i)
    if (rng() % 2 == 0) msg.row_indices.push_back(i);
  msg.rows = random_rows(rng, msg.row_indices.size() * msg.points);
  return msg;
}

ode::MigrationPayload random_migration(std::mt19937_64& rng) {
  ode::MigrationPayload payload;
  payload.direction = rng() % 2 == 0
                          ? ode::MigrationPayload::Direction::kToLeft
                          : ode::MigrationPayload::Direction::kToRight;
  payload.row_first = rng() % 1000;
  payload.owned_count = 1 + rng() % 5;
  payload.stencil = rng() % 2;
  payload.points = 1 + rng() % 17;
  payload.rows = random_rows(rng, payload.row_count() * payload.points);
  return payload;
}

algo::ControlFrame random_control(std::mt19937_64& rng) {
  using Kind = algo::ControlFrame::Kind;
  constexpr Kind kLiveKinds[] = {Kind::kReport, Kind::kHeartbeat,
                                 Kind::kVerifyRequest, Kind::kVerifyAck,
                                 Kind::kHalt};
  algo::ControlFrame frame;
  frame.kind = kLiveKinds[rng() % std::size(kLiveKinds)];
  frame.sender = rng() % 64;
  frame.epoch = rng() % 100000;
  frame.flag = rng() % 2 == 0;
  return frame;
}

WorkerResult random_worker_result(std::mt19937_64& rng) {
  WorkerResult result;
  result.rank = rng() % 64;
  result.converged = rng() % 2 == 0;
  if (rng() % 3 == 0)
    result.failure_reason =
        "reason-" + std::to_string(rng() % 1000) + " \xF0\x9F\x92\xA5";
  result.iterations = rng() % 100000;
  result.first = rng() % 1000;
  result.count = rng() % 8;
  result.points = result.count == 0 ? 0 : 1 + rng() % 9;
  result.last_residual = random_double(rng);
  result.total_work = random_double(rng);
  result.data_messages = rng() % 100000;
  result.control_messages = rng() % 100000;
  result.bytes_sent = rng() % 100000000;
  result.migrations_out = rng() % 100;
  result.components_out = rng() % 1000;
  result.min_components_seen = rng() % 100;
  result.detection_max_residual = random_double(rng);
  result.max_pending_disturbance = random_double(rng);
  result.rows = random_rows(rng, result.count * result.points);
  return result;
}

TEST(NetWireFuzz, RoundTrip1000Seeds) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> bytes;

    const ode::BoundaryMessage boundary = random_boundary(rng);
    bytes.clear();
    encode_boundary(boundary, bytes);
    FrameView view = must_extract(bytes);
    ASSERT_EQ(view.header.type, FrameType::kBoundary);
    ode::BoundaryMessage boundary2;
    ASSERT_TRUE(decode_boundary(view.payload, boundary2)) << "seed " << seed;
    EXPECT_EQ(boundary2.global_first, boundary.global_first);
    EXPECT_EQ(boundary2.row_count, boundary.row_count);
    EXPECT_EQ(boundary2.points, boundary.points);
    EXPECT_EQ(boundary2.sender_iteration, boundary.sender_iteration);
    EXPECT_EQ(boundary2.sender_components, boundary.sender_components);
    EXPECT_TRUE(same_bits(boundary2.sender_residual,
                          boundary.sender_residual));
    EXPECT_TRUE(same_bits(boundary2.sender_load, boundary.sender_load));
    EXPECT_TRUE(same_bits(boundary2.rows, boundary.rows)) << "seed " << seed;

    const ode::MigrationPayload migration = random_migration(rng);
    bytes.clear();
    encode_migration(migration, bytes);
    view = must_extract(bytes);
    ode::MigrationPayload migration2;
    ASSERT_TRUE(decode_migration(view.payload, migration2)) << "seed " << seed;
    EXPECT_EQ(migration2.direction, migration.direction);
    EXPECT_EQ(migration2.row_first, migration.row_first);
    EXPECT_EQ(migration2.owned_count, migration.owned_count);
    EXPECT_EQ(migration2.stencil, migration.stencil);
    EXPECT_EQ(migration2.points, migration.points);
    EXPECT_TRUE(same_bits(migration2.rows, migration.rows)) << "seed " << seed;

    const algo::ControlFrame control = random_control(rng);
    bytes.clear();
    encode_control(control, bytes);
    view = must_extract(bytes);
    algo::ControlFrame control2;
    ASSERT_TRUE(decode_control(view.payload, control2)) << "seed " << seed;
    EXPECT_EQ(control2.kind, control.kind);
    EXPECT_EQ(control2.sender, control.sender);
    EXPECT_EQ(control2.epoch, control.epoch);
    EXPECT_EQ(control2.flag, control.flag);

    const WorkerResult result = random_worker_result(rng);
    bytes.clear();
    encode_worker_result(result, bytes);
    view = must_extract(bytes);
    WorkerResult result2;
    ASSERT_TRUE(decode_worker_result(view.payload, result2))
        << "seed " << seed;
    EXPECT_EQ(result2.rank, result.rank);
    EXPECT_EQ(result2.converged, result.converged);
    EXPECT_EQ(result2.failure_reason, result.failure_reason);
    EXPECT_EQ(result2.iterations, result.iterations);
    EXPECT_EQ(result2.first, result.first);
    EXPECT_EQ(result2.count, result.count);
    EXPECT_EQ(result2.points, result.points);
    EXPECT_TRUE(same_bits(result2.last_residual, result.last_residual));
    EXPECT_TRUE(same_bits(result2.total_work, result.total_work));
    EXPECT_EQ(result2.bytes_sent, result.bytes_sent);
    EXPECT_EQ(result2.min_components_seen, result.min_components_seen);
    EXPECT_TRUE(same_bits(result2.rows, result.rows)) << "seed " << seed;

    const Hello hello{1 + rng() % 63, 64, rng() % 4};
    bytes.clear();
    encode_hello(hello, bytes);
    view = must_extract(bytes);
    Hello hello2;
    ASSERT_TRUE(decode_hello(view.payload, hello2));
    EXPECT_EQ(hello2.rank, hello.rank);
    EXPECT_EQ(hello2.processors, hello.processors);
    EXPECT_EQ(hello2.features, hello.features);

    bool goodbye_failed = rng() % 2 == 0;
    bytes.clear();
    encode_goodbye(goodbye_failed, bytes);
    view = must_extract(bytes);
    bool goodbye_failed2 = !goodbye_failed;
    ASSERT_TRUE(decode_goodbye(view.payload, goodbye_failed2));
    EXPECT_EQ(goodbye_failed2, goodbye_failed);
  }
}

TEST(NetWireFuzz, BoundaryDeltaRoundTripAndScatterGatherParity) {
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    std::mt19937_64 rng(seed * 31 + 1);
    const ode::BoundaryDeltaMessage msg = random_delta(rng);
    std::vector<std::uint8_t> bytes;
    encode_boundary_delta(msg, bytes);
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes + msg.byte_size());
    const FrameView view = must_extract(bytes);
    ASSERT_EQ(view.header.type, FrameType::kBoundaryDelta);
    ode::BoundaryDeltaMessage msg2;
    ASSERT_TRUE(decode_boundary_delta(view.payload, msg2)) << "seed "
                                                           << seed;
    EXPECT_EQ(msg2.global_first, msg.global_first);
    EXPECT_EQ(msg2.row_count, msg.row_count);
    EXPECT_EQ(msg2.points, msg.points);
    EXPECT_EQ(msg2.sender_iteration, msg.sender_iteration);
    EXPECT_EQ(msg2.sender_components, msg.sender_components);
    EXPECT_TRUE(same_bits(msg2.sender_residual, msg.sender_residual));
    EXPECT_TRUE(same_bits(msg2.sender_load, msg.sender_load));
    EXPECT_EQ(msg2.base_epoch, msg.base_epoch);
    EXPECT_EQ(msg2.row_indices, msg.row_indices);
    EXPECT_TRUE(same_bits(msg2.rows, msg.rows)) << "seed " << seed;

    // The scatter-gather encoder (header array + pooled payload, CRC
    // fused into the encode pass) must be bitwise identical to the
    // contiguous encoder once reassembled.
    FrameHeaderArray header;
    std::vector<std::uint8_t> payload;
    encode_boundary_delta_sg(msg, header, payload);
    std::vector<std::uint8_t> assembled(header.begin(), header.end());
    assembled.insert(assembled.end(), payload.begin(), payload.end());
    EXPECT_EQ(assembled, bytes) << "seed " << seed;
  }
}

TEST(NetWireFuzz, ScatterGatherMatchesContiguousEncoders) {
  // Every frame kind the transport sends through iovecs must reassemble
  // to exactly what the contiguous encoder produces.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    std::mt19937_64 rng(seed * 613 + 7);

    std::vector<std::uint8_t> contiguous;
    FrameHeaderArray header;
    std::vector<std::uint8_t> payload;

    const ode::BoundaryMessage boundary = random_boundary(rng);
    encode_boundary(boundary, contiguous);
    encode_boundary_sg(boundary, header, payload);
    std::vector<std::uint8_t> assembled(header.begin(), header.end());
    assembled.insert(assembled.end(), payload.begin(), payload.end());
    EXPECT_EQ(assembled, contiguous) << "boundary seed " << seed;

    const ode::MigrationPayload migration = random_migration(rng);
    contiguous.clear();
    payload.clear();
    encode_migration(migration, contiguous);
    encode_migration_sg(migration, header, payload);
    assembled.assign(header.begin(), header.end());
    assembled.insert(assembled.end(), payload.begin(), payload.end());
    EXPECT_EQ(assembled, contiguous) << "migration seed " << seed;

    const algo::ControlFrame control = random_control(rng);
    contiguous.clear();
    payload.clear();
    encode_control(control, contiguous);
    encode_control_sg(control, header, payload);
    assembled.assign(header.begin(), header.end());
    assembled.insert(assembled.end(), payload.begin(), payload.end());
    EXPECT_EQ(assembled, contiguous) << "control seed " << seed;

    const bool failed = rng() % 2 == 0;
    contiguous.clear();
    payload.clear();
    encode_goodbye(failed, contiguous);
    encode_goodbye_sg(failed, header, payload);
    assembled.assign(header.begin(), header.end());
    assembled.insert(assembled.end(), payload.begin(), payload.end());
    EXPECT_EQ(assembled, contiguous) << "goodbye seed " << seed;

    contiguous.clear();
    encode_empty(FrameType::kTokenRequest, contiguous);
    encode_empty_sg(FrameType::kTokenRequest, header);
    assembled.assign(header.begin(), header.end());
    EXPECT_EQ(assembled, contiguous) << "empty seed " << seed;
  }
}

TEST(NetWireFuzz, TraceRecordRoundTrip) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(seed * 977 + 5);
    std::vector<trace::IterationRecord> iterations(rng() % 20);
    double t = 0.0;
    std::size_t index = 0;
    for (auto& record : iterations) {
      record.rank = rng() % 8;
      record.iteration = ++index;
      record.start = t;
      record.end = t += 0.25;
      record.work = static_cast<double>(rng() % 1000);
      record.residual = random_double(rng);
      record.components = rng() % 100;
    }
    std::vector<std::uint8_t> bytes;
    encode_trace_iterations(iterations, bytes);
    FrameView view = must_extract(bytes);
    ASSERT_EQ(view.header.type, FrameType::kTraceIterations);
    std::vector<trace::IterationRecord> iterations2;
    ASSERT_TRUE(decode_trace_iterations(view.payload, iterations2));
    ASSERT_EQ(iterations2.size(), iterations.size());
    for (std::size_t i = 0; i < iterations.size(); ++i) {
      EXPECT_EQ(iterations2[i].rank, iterations[i].rank);
      EXPECT_EQ(iterations2[i].iteration, iterations[i].iteration);
      EXPECT_TRUE(same_bits(iterations2[i].start, iterations[i].start));
      EXPECT_TRUE(same_bits(iterations2[i].residual,
                            iterations[i].residual));
      EXPECT_EQ(iterations2[i].components, iterations[i].components);
    }

    std::vector<trace::MessageRecord> messages(rng() % 20);
    for (auto& record : messages) {
      record.src = rng() % 8;
      record.dst = rng() % 8;
      record.send_time = t;
      record.receive_time = t + 0.125;
      record.bytes = rng() % 100000;
      record.kind = static_cast<trace::MessageKind>(rng() % 3);
    }
    bytes.clear();
    encode_trace_messages(messages, bytes);
    view = must_extract(bytes);
    std::vector<trace::MessageRecord> messages2;
    ASSERT_TRUE(decode_trace_messages(view.payload, messages2));
    ASSERT_EQ(messages2.size(), messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(messages2[i].src, messages[i].src);
      EXPECT_EQ(messages2[i].bytes, messages[i].bytes);
      EXPECT_EQ(messages2[i].kind, messages[i].kind);
    }

    std::vector<trace::MigrationRecord> migrations(rng() % 20);
    for (auto& record : migrations) {
      record.src = rng() % 8;
      record.dst = rng() % 8;
      record.time = t;
      record.components = rng() % 100;
    }
    bytes.clear();
    encode_trace_migrations(migrations, bytes);
    view = must_extract(bytes);
    std::vector<trace::MigrationRecord> migrations2;
    ASSERT_TRUE(decode_trace_migrations(view.payload, migrations2));
    ASSERT_EQ(migrations2.size(), migrations.size());
    for (std::size_t i = 0; i < migrations.size(); ++i) {
      EXPECT_EQ(migrations2[i].src, migrations[i].src);
      EXPECT_EQ(migrations2[i].dst, migrations[i].dst);
      EXPECT_EQ(migrations2[i].components, migrations[i].components);
    }

    std::vector<trace::CommsRecord> comms(rng() % 20);
    for (auto& record : comms) {
      record.src = rng() % 8;
      record.dst = rng() % 8;
      record.frames_sent = rng() % 100000;
      record.frames_full = rng() % 100000;
      record.frames_delta = rng() % 100000;
      record.frames_suppressed = rng() % 100000;
      record.rows_suppressed = rng() % 100000;
      record.bytes_sent = rng() % 100000000;
      record.bytes_received = rng() % 100000000;
    }
    bytes.clear();
    encode_trace_comms(comms, bytes);
    view = must_extract(bytes);
    ASSERT_EQ(view.header.type, FrameType::kTraceComms);
    std::vector<trace::CommsRecord> comms2;
    ASSERT_TRUE(decode_trace_comms(view.payload, comms2));
    ASSERT_EQ(comms2.size(), comms.size());
    for (std::size_t i = 0; i < comms.size(); ++i) {
      EXPECT_EQ(comms2[i].src, comms[i].src);
      EXPECT_EQ(comms2[i].dst, comms[i].dst);
      EXPECT_EQ(comms2[i].frames_sent, comms[i].frames_sent);
      EXPECT_EQ(comms2[i].frames_delta, comms[i].frames_delta);
      EXPECT_EQ(comms2[i].rows_suppressed, comms[i].rows_suppressed);
      EXPECT_EQ(comms2[i].bytes_sent, comms[i].bytes_sent);
      EXPECT_EQ(comms2[i].bytes_received, comms[i].bytes_received);
    }
  }
}

// ---- Rejection paths ---------------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  std::mt19937_64 rng(42);
  std::vector<std::uint8_t> bytes;
  encode_boundary(random_boundary(rng), bytes);
  return bytes;
}

TEST(NetWireReject, EveryTruncationNeedsMore) {
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameView view;
    const std::span<const std::uint8_t> prefix(frame.data(), len);
    EXPECT_EQ(try_extract_frame(prefix, view), DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(NetWireReject, EveryByteFlipIsRejected) {
  // Flipping any single byte must yield kBad (header corruption or CRC
  // mismatch) — or, for length-field bytes, at worst kNeedMore. A frame
  // must never decode differently and silently pass.
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> corrupt = frame;
      corrupt[i] ^= flip;
      FrameView view;
      const DecodeStatus status = try_extract_frame(corrupt, view);
      EXPECT_NE(status, DecodeStatus::kOk) << "byte " << i;
    }
  }
}

TEST(NetWireReject, RandomCorruptionNeverCrashes) {
  // 1000 seeds of random mutilation: any status is fine, crashing is not,
  // and whenever extraction still succeeds the decoder must stay sane.
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> corrupt = frame;
    const std::size_t edits = 1 + rng() % 8;
    for (std::size_t e = 0; e < edits; ++e)
      corrupt[rng() % corrupt.size()] =
          static_cast<std::uint8_t>(rng());
    if (rng() % 4 == 0)
      corrupt.resize(rng() % (corrupt.size() + 1));
    FrameView view;
    if (try_extract_frame(corrupt, view) == DecodeStatus::kOk &&
        view.header.type == FrameType::kBoundary) {
      ode::BoundaryMessage msg;
      (void)decode_boundary(view.payload, msg);  // must not crash
    }
  }
}

std::vector<std::uint8_t> sample_delta_frame() {
  std::mt19937_64 rng(1234);
  ode::BoundaryDeltaMessage msg = random_delta(rng);
  // Guarantee at least one carried row so the frame exercises every
  // payload section.
  if (msg.row_indices.empty()) {
    msg.row_indices.push_back(0);
    msg.rows = random_rows(rng, msg.points);
  }
  std::vector<std::uint8_t> bytes;
  encode_boundary_delta(msg, bytes);
  return bytes;
}

TEST(NetWireReject, DeltaEveryTruncationNeedsMore) {
  const std::vector<std::uint8_t> frame = sample_delta_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameView view;
    const std::span<const std::uint8_t> prefix(frame.data(), len);
    EXPECT_EQ(try_extract_frame(prefix, view), DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(NetWireReject, DeltaEveryByteFlipIsRejected) {
  // Same guarantee the full boundary frame gives: no single-byte
  // corruption may yield a frame that decodes and silently passes.
  const std::vector<std::uint8_t> frame = sample_delta_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> corrupt = frame;
      corrupt[i] ^= flip;
      FrameView view;
      EXPECT_NE(try_extract_frame(corrupt, view), DecodeStatus::kOk)
          << "byte " << i;
    }
  }
}

/// CRC-valid delta frames whose payloads lie about their own shape: the
/// decoder must reject each by status, never trust the counts.
TEST(NetWireReject, DeltaMalformedIndicesAndCounts) {
  struct Case {
    const char* name;
    std::vector<std::size_t> indices;
    std::size_t row_count;
    std::size_t points;
    std::size_t rows;  // doubles actually written
  };
  const Case cases[] = {
      {"index out of range", {4}, 4, 2, 2},
      {"descending indices", {2, 1}, 4, 2, 4},
      {"duplicate index", {1, 1}, 4, 2, 4},
      {"rows shorter than promised", {0, 2}, 4, 2, 2},
      {"rows longer than promised", {0}, 4, 2, 4},
      {"more changed rows than the full message has", {0, 1, 2}, 2, 1, 3},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bytes;
    const std::size_t start = begin_frame(bytes, FrameType::kBoundaryDelta);
    WireWriter w(bytes);
    w.size(0);            // global_first
    w.size(c.row_count);  // row_count
    w.size(c.points);     // points
    w.size(1);            // sender_iteration
    w.size(1);            // sender_components
    w.f64(0.0);           // sender_residual
    w.f64(0.0);           // sender_load
    w.size(1);            // base_epoch
    w.size(c.indices.size());
    for (const std::size_t idx : c.indices) w.size(idx);
    for (std::size_t i = 0; i < c.rows; ++i) w.f64(1.0);
    end_frame(bytes, start);
    FrameView view;
    ASSERT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk) << c.name;
    ode::BoundaryDeltaMessage out;
    EXPECT_FALSE(decode_boundary_delta(view.payload, out)) << c.name;
  }
}

TEST(NetWireReject, BadMagicVersionType) {
  std::vector<std::uint8_t> frame = sample_frame();
  FrameView view;

  std::vector<std::uint8_t> bad = frame;
  bad[0] = 0x00;  // magic
  EXPECT_EQ(try_extract_frame(bad, view), DecodeStatus::kBad);

  bad = frame;
  bad[4] = 0x02;  // version 2
  EXPECT_EQ(try_extract_frame(bad, view), DecodeStatus::kBad);

  bad = frame;
  bad[6] = 0x00;  // type 0: unknown
  EXPECT_EQ(try_extract_frame(bad, view), DecodeStatus::kBad);
  bad[6] = 0x63;  // type 99: unknown
  EXPECT_EQ(try_extract_frame(bad, view), DecodeStatus::kBad);
}

TEST(NetWireReject, OversizedLengthIsBadNotAnAllocation) {
  // A length field beyond the 64 MiB cap must be rejected from the header
  // alone — the receiver never buffers toward an attacker-sized frame.
  std::vector<std::uint8_t> frame = sample_frame();
  const std::uint32_t huge = (64u << 20) + 1;
  std::memcpy(frame.data() + 8, &huge, 4);
  FrameView view;
  EXPECT_EQ(try_extract_frame(frame, view), DecodeStatus::kBad);
}

TEST(NetWireReject, InternalSizeDisagreement) {
  // A CRC-valid frame whose payload lies about its own shape: row_count
  // says 2 rows but only 1 row of doubles follows.
  ode::BoundaryMessage msg;
  msg.global_first = 0;
  msg.row_count = 2;
  msg.points = 4;
  msg.rows.assign(4, 1.0);  // half the promised data
  std::vector<std::uint8_t> bytes;
  encode_boundary(msg, bytes);
  FrameView view;
  ASSERT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk);
  ode::BoundaryMessage out;
  EXPECT_FALSE(decode_boundary(view.payload, out));

  // Same for a migration whose row accounting is inconsistent.
  ode::MigrationPayload payload;
  payload.owned_count = 3;
  payload.stencil = 1;
  payload.points = 2;
  payload.rows.assign(2, 0.5);  // 1 row instead of 4
  bytes.clear();
  encode_migration(payload, bytes);
  ASSERT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk);
  ode::MigrationPayload out2;
  EXPECT_FALSE(decode_migration(view.payload, out2));
}

TEST(NetWireReject, TrailingGarbageInPayload) {
  // A control frame with extra payload bytes: every decoder demands full
  // consumption, so padding a valid body is rejected too.
  algo::ControlFrame frame;
  std::vector<std::uint8_t> bytes;
  const std::size_t start = begin_frame(bytes, FrameType::kControl);
  WireWriter w(bytes);
  w.u8(0);
  w.size(1);
  w.size(2);
  w.size(0);
  w.u8(1);
  w.u8(0xEE);  // trailing garbage
  end_frame(bytes, start);
  FrameView view;
  ASSERT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk);
  EXPECT_FALSE(decode_control(view.payload, frame));
}

TEST(NetWireReject, UnknownEnumValues) {
  // Control frame with kind byte 17 (no such ControlFrame::Kind).
  std::vector<std::uint8_t> bytes;
  const std::size_t start = begin_frame(bytes, FrameType::kControl);
  WireWriter w(bytes);
  w.u8(17);
  w.size(0);
  w.size(0);
  w.size(0);
  w.u8(0);
  end_frame(bytes, start);
  FrameView view;
  ASSERT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk);
  algo::ControlFrame frame;
  EXPECT_FALSE(decode_control(view.payload, frame));

  // Migration direction byte 2 (only 0/1 defined).
  bytes.clear();
  const std::size_t mig = begin_frame(bytes, FrameType::kMigration);
  WireWriter w2(bytes);
  w2.u8(2);
  w2.size(0);
  w2.size(1);
  w2.size(0);
  w2.size(1);
  w2.f64(1.0);
  end_frame(bytes, mig);
  ASSERT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk);
  ode::MigrationPayload payload;
  EXPECT_FALSE(decode_migration(view.payload, payload));
}

TEST(NetWireReject, RetiredControlKindAndReservedSlot) {
  // A valid body (kReport, reserved 0) decodes; the same body with the
  // retired kind byte 4, or with anything but 0 in the reserved slot, is
  // rejected.
  const auto control_frame = [](std::uint8_t kind, std::uint64_t reserved) {
    std::vector<std::uint8_t> bytes;
    const std::size_t start = begin_frame(bytes, FrameType::kControl);
    WireWriter w(bytes);
    w.u8(kind);
    w.size(1);
    w.size(2);
    w.u64(reserved);
    w.u8(1);
    end_frame(bytes, start);
    return bytes;
  };
  const auto decodes = [](const std::vector<std::uint8_t>& bytes) {
    FrameView view;
    EXPECT_EQ(try_extract_frame(bytes, view), DecodeStatus::kOk);
    algo::ControlFrame frame;
    return decode_control(view.payload, frame);
  };
  EXPECT_TRUE(decodes(control_frame(0, 0)));
  EXPECT_FALSE(decodes(control_frame(4, 0)));
  EXPECT_FALSE(decodes(control_frame(0, 1)));
  EXPECT_FALSE(decodes(control_frame(0, std::uint64_t{1} << 63)));
}

TEST(NetWireStream, BackToBackFramesExtractInOrder) {
  // The receive path accumulates a byte stream; frames must peel off the
  // front one at a time, including when a partial frame trails.
  std::mt19937_64 rng(3);
  std::vector<std::uint8_t> stream;
  encode_hello({0, 2}, stream);
  std::vector<std::uint8_t> one;
  encode_boundary(random_boundary(rng), one);
  stream.insert(stream.end(), one.begin(), one.end());
  one.clear();
  encode_empty(FrameType::kTokenGrant, one);
  stream.insert(stream.end(), one.begin(), one.end());
  stream.push_back(0x41);  // first byte of a next frame

  FrameView view;
  ASSERT_EQ(try_extract_frame(stream, view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.type, FrameType::kHello);
  stream.erase(stream.begin(),
               stream.begin() + static_cast<std::ptrdiff_t>(view.frame_bytes));
  ASSERT_EQ(try_extract_frame(stream, view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.type, FrameType::kBoundary);
  stream.erase(stream.begin(),
               stream.begin() + static_cast<std::ptrdiff_t>(view.frame_bytes));
  ASSERT_EQ(try_extract_frame(stream, view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.type, FrameType::kTokenGrant);
  stream.erase(stream.begin(),
               stream.begin() + static_cast<std::ptrdiff_t>(view.frame_bytes));
  EXPECT_EQ(try_extract_frame(stream, view), DecodeStatus::kNeedMore);
}

}  // namespace
