#include "service/protocol.h"

#include <cstring>

#include "core/flow_codec.h"
#include "util/bytes.h"

namespace opckit::svc {
namespace {

/// Path/message strings on the wire; far above any real path, far below
/// anything that could be used to balloon the decoder.
constexpr std::uint32_t kMaxStringBytes = 1u << 20;

[[noreturn]] void bad_payload(const std::string& what) {
  throw ProtocolError(WireFault::kBadPayload, what);
}

/// Bounds-checked payload cursor; throws kBadPayload instead of reading
/// past the end.
util::ByteReader payload_reader(const std::vector<std::uint8_t>& payload) {
  return util::ByteReader(payload.data(), payload.size(), bad_payload);
}

}  // namespace

bool is_known_type(std::uint16_t v) {
  return v >= static_cast<std::uint16_t>(MsgType::kSubmit) &&
         v <= static_cast<std::uint16_t>(MsgType::kError);
}

const char* to_string(WireFault fault) {
  switch (fault) {
    case WireFault::kTruncated: return "truncated";
    case WireFault::kBadMagic: return "bad-magic";
    case WireFault::kBadVersion: return "bad-version";
    case WireFault::kBadType: return "bad-type";
    case WireFault::kOversized: return "oversized";
    case WireFault::kBadCrc: return "bad-crc";
    case WireFault::kBadPayload: return "bad-payload";
  }
  return "?";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kBadJob: return "bad-job";
  }
  return "?";
}

bool read_exact(Stream& s, void* buf, std::size_t n, bool eof_ok_at_start) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = s.read_some(p + got, n - got);
    if (r == 0) {
      if (got == 0 && eof_ok_at_start) return false;
      throw ProtocolError(
          WireFault::kTruncated,
          "stream ended after " + std::to_string(got) + " of " +
              std::to_string(n) + " expected bytes");
    }
    got += r;
  }
  return true;
}

void write_all(Stream& s, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) sent += s.write_some(p + sent, n - sent);
}

void write_frame(Stream& s, MsgType type,
                 const std::vector<std::uint8_t>& payload) {
  OPCKIT_CHECK(payload.size() <= kMaxPayloadBytes);
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderSize + payload.size() + 4);
  util::ByteWriter w(frame);
  w.bytes(kMagic, sizeof kMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.u32(util::crc32(payload.data(), payload.size()));
  write_all(s, frame.data(), frame.size());
}

std::optional<Frame> read_frame(Stream& s) {
  std::uint8_t header[kFrameHeaderSize];
  if (!read_exact(s, header, sizeof header, /*eof_ok_at_start=*/true)) {
    return std::nullopt;  // clean close at a frame boundary
  }
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0)
    throw ProtocolError(WireFault::kBadMagic,
                        "frame does not start with the OPCS magic");
  util::ByteReader fields(header + sizeof kMagic,
                         sizeof header - sizeof kMagic, bad_payload);
  const std::uint16_t version = fields.u16();
  if (version != kProtocolVersion)
    throw ProtocolError(WireFault::kBadVersion,
                        "frame version " + std::to_string(version) +
                            "; this build speaks version " +
                            std::to_string(kProtocolVersion));
  const std::uint16_t type = fields.u16();
  if (!is_known_type(type))
    throw ProtocolError(WireFault::kBadType,
                        "unknown message type " + std::to_string(type));
  const std::uint32_t len = fields.u32();
  if (len > kMaxPayloadBytes)
    throw ProtocolError(WireFault::kOversized,
                        "payload length " + std::to_string(len) +
                            " exceeds the " +
                            std::to_string(kMaxPayloadBytes) + "-byte cap");

  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(len);
  if (len > 0) {
    read_exact(s, frame.payload.data(), len, /*eof_ok_at_start=*/false);
  }
  std::uint8_t crc_bytes[4];
  read_exact(s, crc_bytes, sizeof crc_bytes, /*eof_ok_at_start=*/false);
  const std::uint32_t crc =
      util::ByteReader(crc_bytes, sizeof crc_bytes, bad_payload).u32();
  if (util::crc32(frame.payload.data(), frame.payload.size()) != crc)
    throw ProtocolError(WireFault::kBadCrc, "payload checksum mismatch");
  return frame;
}

// ---- message encodings ------------------------------------------------

std::vector<std::uint8_t> encode_submit(const SubmitMsg& m) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(m.priority));
  w.u8(m.flow);
  w.str(m.in_path);
  w.str(m.out_path);
  w.str(m.top);
  const std::vector<std::uint8_t> spec = opc::encode_flow_spec(m.spec);
  w.u32(static_cast<std::uint32_t>(spec.size()));
  w.bytes(spec.data(), spec.size());
  return out;
}

SubmitMsg decode_submit(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r = payload_reader(payload);
  SubmitMsg m;
  m.priority = static_cast<std::int32_t>(r.u32());
  m.flow = r.u8();
  if (m.flow > 1) bad_payload("bad flow kind (0 = flat, 1 = cell)");
  m.in_path = r.str(kMaxStringBytes);
  m.out_path = r.str(kMaxStringBytes);
  m.top = r.str(kMaxStringBytes);
  const std::uint32_t spec_len = r.u32();
  const std::uint8_t* spec = r.take(spec_len, "spec");
  r.finish();
  try {
    m.spec = opc::decode_flow_spec(spec, spec_len);
  } catch (const util::InputError& e) {
    bad_payload(e.what());
  }
  return m;
}

std::vector<std::uint8_t> encode_accepted(const AcceptedMsg& m) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u64(m.job_id);
  w.u32(m.queue_depth);
  return out;
}

AcceptedMsg decode_accepted(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r = payload_reader(payload);
  AcceptedMsg m;
  m.job_id = r.u64();
  m.queue_depth = r.u32();
  r.finish();
  return m;
}

std::vector<std::uint8_t> encode_rejected(const RejectedMsg& m) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u64(m.job_id);
  w.u16(static_cast<std::uint16_t>(m.reason));
  w.str(m.message);
  return out;
}

RejectedMsg decode_rejected(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r = payload_reader(payload);
  RejectedMsg m;
  m.job_id = r.u64();
  const std::uint16_t reason = r.u16();
  if (reason < 1 || reason > 3) bad_payload("bad reject reason");
  m.reason = static_cast<RejectReason>(reason);
  m.message = r.str(kMaxStringBytes);
  r.finish();
  return m;
}

std::vector<std::uint8_t> encode_progress(const ProgressMsg& m) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u64(m.job_id);
  w.u32(static_cast<std::uint32_t>(m.pass));
  w.u64(m.tiles_done);
  w.u64(m.tiles_total);
  w.str(m.phase);
  return out;
}

ProgressMsg decode_progress(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r = payload_reader(payload);
  ProgressMsg m;
  m.job_id = r.u64();
  m.pass = static_cast<std::int32_t>(r.u32());
  m.tiles_done = r.u64();
  m.tiles_total = r.u64();
  m.phase = r.str(kMaxStringBytes);
  r.finish();
  return m;
}

std::vector<std::uint8_t> encode_result(const ResultMsg& m) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u64(m.job_id);
  w.u8(m.ok ? 1 : 0);
  w.str(m.payload);
  return out;
}

ResultMsg decode_result(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r = payload_reader(payload);
  ResultMsg m;
  m.job_id = r.u64();
  const std::uint8_t ok = r.u8();
  if (ok > 1) bad_payload("bad result flag");
  m.ok = ok == 1;
  m.payload = r.str(kMaxStringBytes);
  r.finish();
  return m;
}

std::vector<std::uint8_t> encode_shutdown(const ShutdownMsg& m) {
  return {static_cast<std::uint8_t>(m.mode)};
}

ShutdownMsg decode_shutdown(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r = payload_reader(payload);
  ShutdownMsg m;
  const std::uint8_t mode = r.u8();
  if (mode > 1) bad_payload("bad shutdown mode (0 = drain, 1 = abort)");
  m.mode = static_cast<ShutdownMode>(mode);
  r.finish();
  return m;
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& m) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u16(m.code);
  w.str(m.message);
  return out;
}

ErrorMsg decode_error(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r = payload_reader(payload);
  ErrorMsg m;
  m.code = r.u16();
  m.message = r.str(kMaxStringBytes);
  r.finish();
  return m;
}

}  // namespace opckit::svc
