#include "store/result_store.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "trace/metrics.h"
#include "util/bytes.h"
#include "util/check.h"

namespace opckit::store {
namespace {

using Magic = std::array<std::uint8_t, 8>;
constexpr Magic kMagic = {'O', 'P', 'C', 'K', 'I', 'T', 'S', '1'};
/// Version-1 pattern libraries carried their own magic.
constexpr Magic kLibraryV1Magic = {'O', 'P', 'C', 'K', 'I', 'T', 'L', '1'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;
constexpr std::size_t kRectBytes = 4 * 8;
constexpr std::size_t kPointBytes = 2 * 8;
constexpr std::size_t kSeedBytes = 3 * 8;

// ---- record payload ---------------------------------------------------

void put_rect(util::ByteWriter& w, const geom::Rect& r) {
  w.i64(r.lo.x);
  w.i64(r.lo.y);
  w.i64(r.hi.x);
  w.i64(r.hi.y);
}

geom::Rect read_rect(util::ByteReader& r) {
  geom::Rect rect;
  rect.lo.x = r.i64();
  rect.lo.y = r.i64();
  rect.hi.x = r.i64();
  rect.hi.y = r.i64();
  return rect;
}

std::vector<std::uint8_t> encode_record(const TileRecord& record) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(record.orientation));
  put_rect(w, record.frame);
  w.u32(static_cast<std::uint32_t>(record.window_rects.size()));
  for (const auto& r : record.window_rects) put_rect(w, r);
  w.u32(static_cast<std::uint32_t>(record.own_rects.size()));
  for (const auto& r : record.own_rects) put_rect(w, r);
  w.u32(static_cast<std::uint32_t>(record.solution.size()));
  for (const auto& poly : record.solution) {
    w.u32(static_cast<std::uint32_t>(poly.ring().size()));
    for (const auto& v : poly.ring()) {
      w.i64(v.x);
      w.i64(v.y);
    }
  }
  w.u32(static_cast<std::uint32_t>(record.seeds.size()));
  for (const WarmSeed& s : record.seeds) {
    w.i64(s.site.x);
    w.i64(s.site.y);
    w.i64(s.offset);
  }
  return out;
}

/// Thrown by the payload reader; decode_record turns it into `false`.
struct Malformed {};
void malformed(const std::string&) { throw Malformed{}; }

/// Parse one record payload (the inverse of encode_record); false on any
/// structural violation — truncated field, count past the bytes present,
/// trailing bytes.
bool decode_record(const std::uint8_t* data, std::size_t size,
                   TileRecord& rec) {
  util::ByteReader r(data, size, malformed);
  // Every count is checked against the bytes present before the resize,
  // so a corrupt count cannot allocate unboundedly.
  auto counted = [&r](std::size_t min_bytes_each) {
    const std::uint32_t n = r.u32();
    r.need(static_cast<std::uint64_t>(n) * min_bytes_each, "count");
    return n;
  };
  try {
    const std::uint8_t orient = r.u8();
    if (orient >= geom::kOrientationCount) return false;
    rec.orientation = static_cast<geom::Orientation>(orient);
    rec.frame = read_rect(r);
    for (auto* rects : {&rec.window_rects, &rec.own_rects}) {
      rects->resize(counted(kRectBytes));
      for (auto& rect : *rects) rect = read_rect(r);
    }
    // Each polygon costs at least its vertex count.
    rec.solution.resize(counted(4));
    for (auto& poly : rec.solution) {
      std::vector<geom::Point> ring(counted(kPointBytes));
      for (auto& v : ring) {
        v.x = r.i64();
        v.y = r.i64();
      }
      poly = geom::Polygon(std::move(ring));
    }
    rec.seeds.resize(counted(kSeedBytes));
    for (WarmSeed& s : rec.seeds) {
      s.site.x = r.i64();
      s.site.y = r.i64();
      s.offset = r.i64();
    }
    // Trailing bytes after a well-formed record are corruption too.
    return r.remaining() == 0;
  } catch (const Malformed&) {
    return false;
  }
}

// ---- diagnostics ------------------------------------------------------

lint::Diagnostic make_diag(std::string_view code, std::string message) {
  lint::Diagnostic d;
  d.code = std::string(code);
  const lint::CodeInfo* info = lint::find_code(code);
  OPCKIT_CHECK_MSG(info != nullptr, "unregistered store code " << code);
  d.severity = info->default_severity;
  d.message = std::move(message);
  return d;
}

[[noreturn]] void refuse(lint::LintReport* report, std::string_view code,
                         const std::string& message) {
  lint::Diagnostic d = make_diag(code, message);
  std::string line = d.to_line();
  if (report) report->add(std::move(d));
  throw util::InputError("record file: " + line);
}

}  // namespace

bool same_tile(const TileRecord& a, const TileRecord& b) {
  return a.window_rects == b.window_rects && a.own_rects == b.own_rects &&
         a.frame == b.frame && a.orientation == b.orientation &&
         a.solution == b.solution;
}

ResultStore::ResultStore(std::string path, const char* mode,
                         bool sync_on_append)
    : path_(std::move(path)),
      file_(std::fopen(path_.c_str(), mode)),
      sync_on_append_(sync_on_append) {
  if (!file_)
    throw util::InputError("record file: cannot open '" + path_ +
                           "' for writing: " + std::strerror(errno));
  // Unbuffered: every fwrite() below is one write(), so a crash tears at
  // most the record in flight.
  std::setvbuf(file_.get(), nullptr, _IONBF, 0);
}

void ResultStore::write(const std::vector<std::uint8_t>& bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) != bytes.size())
    throw util::InputError("record file: write failed on '" + path_ +
                           "': " + std::strerror(errno));
}

ResultStore ResultStore::create(const std::string& path,
                                std::uint64_t fingerprint,
                                bool sync_on_append) {
  std::vector<std::uint8_t> header;
  util::ByteWriter w(header);
  w.bytes(kMagic.data(), kMagic.size());
  w.u32(kVersion);
  w.u64(fingerprint);
  w.u32(util::crc32(header.data(), header.size()));
  OPCKIT_DCHECK(header.size() == kHeaderSize);

  // "e": O_CLOEXEC. The header is not fsynced here even in sync mode:
  // fsync flushes the whole file, so the first record's sync covers it,
  // and an empty file that vanishes in a crash costs nothing to recreate.
  ResultStore store(path, "wbe", sync_on_append);
  store.write(header);
  return store;
}

ResultStore ResultStore::append_to(const std::string& path,
                                   std::uint64_t valid_bytes,
                                   bool sync_on_append) {
  // Drop any recovered torn tail before appending: new records must land
  // directly after the last whole one.
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec)
    throw util::InputError("record file: cannot truncate '" + path +
                           "' to its valid prefix: " + ec.message());
  return ResultStore(path, "abe", sync_on_append);
}

LoadResult ResultStore::load(const std::string& path,
                             std::uint64_t expected_fingerprint,
                             lint::LintReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw util::InputError("record file: cannot open '" + path + "'");
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  // The reader is only ever asked for bytes the checks below proved
  // present.
  auto unreachable = [](const std::string& what) {
    OPCKIT_CHECK_MSG(false, "record file reader: " << what);
  };

  // ---- header ----
  if (bytes.size() < kHeaderSize)
    refuse(report, "STO003",
           "'" + path + "' is too short to hold a record-file header (" +
               std::to_string(bytes.size()) + " bytes)");
  if (std::equal(kLibraryV1Magic.begin(), kLibraryV1Magic.end(),
                 bytes.begin()))
    refuse(report, "STO003",
           "'" + path + "' is a version-1 pattern library (OPCKITL1); "
                        "this build reads record-file version " +
               std::to_string(kVersion) + " — delete it to rebuild");
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
    refuse(report, "STO003",
           "'" + path + "' does not start with the OPCKITS1 magic");
  util::ByteReader hdr(bytes.data() + kMagic.size(),
                       kHeaderSize - kMagic.size(), unreachable);
  const std::uint32_t version = hdr.u32();
  const std::uint64_t fingerprint = hdr.u64();
  const std::uint32_t header_crc = hdr.u32();
  if (util::crc32(bytes.data(), kHeaderSize - 4) != header_crc)
    refuse(report, "STO003", "'" + path + "' header checksum mismatch");
  if (version == 1)
    refuse(report, "STO003",
           "'" + path + "' is a version-1 correction store (.ocs without "
                        "seeds); this build reads record-file version " +
               std::to_string(kVersion) + " — delete it to rebuild");
  if (version != kVersion)
    refuse(report, "STO003",
           "'" + path + "' has record-file version " +
               std::to_string(version) + "; this build reads version " +
               std::to_string(kVersion));
  if (fingerprint != expected_fingerprint) {
    std::ostringstream os;
    os << "'" << path << "' was written under a different process setup "
       << "(fingerprint " << std::hex << fingerprint << ", expected "
       << expected_fingerprint << std::dec
       << "); refusing to replay — delete it or rerun without --resume "
          "to rebuild it";
    refuse(report, "STO001", os.str());
  }

  // ---- records ----
  LoadResult result;
  std::size_t pos = kHeaderSize;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    const std::size_t rem = bytes.size() - pos;
    util::ByteReader r(bytes.data() + pos, rem, unreachable);
    const std::uint32_t len = rem < 4 ? 0 : r.u32();
    // A length that runs past EOF is an interrupted write, not
    // corruption — the CRC that would vouch for it was never written.
    if (rem < 4 || static_cast<std::uint64_t>(len) + 4 > r.remaining()) {
      result.tail_recovered = true;
      trace::metrics()
          .counter(trace::metric::kStoreRecoveredTailBytes)
          .add(rem);
      if (report)
        report->add(make_diag(
            "STO002", "'" + path + "' ends inside a record (torn write); "
                                   "dropped " +
                          std::to_string(rem) + " tail bytes, kept " +
                          std::to_string(result.records.size()) +
                          " whole records"));
      break;
    }
    const std::uint8_t* payload = r.take(len, "payload");
    const std::uint32_t stored_crc = r.u32();
    const std::string which = "'" + path + "' record " +
                              std::to_string(result.records.size());
    if (util::crc32(payload, len) != stored_crc)
      refuse(report, "STO004",
             which + " fails its checksum; the file is corrupt — delete "
                     "it and rerun without --resume");
    TileRecord rec;
    if (!decode_record(payload, len, rec))
      refuse(report, "STO004",
             which + " is structurally malformed despite a valid "
                     "checksum; the file is corrupt — delete it and rerun "
                     "without --resume");
    result.records.push_back(std::move(rec));
    pos += 8 + static_cast<std::size_t>(len);
    result.valid_bytes = pos;
  }
  trace::metrics()
      .counter(trace::metric::kStoreRecordsLoaded)
      .add(result.records.size());
  return result;
}

void ResultStore::append(const TileRecord& record) {
  const std::vector<std::uint8_t> payload = encode_record(record);
  std::vector<std::uint8_t> framed;
  framed.reserve(payload.size() + 8);
  util::ByteWriter w(framed);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.u32(util::crc32(payload.data(), payload.size()));
  // One write per record: a crash costs at most the record being
  // written, which the next load recovers as a torn tail.
  write(framed);
  if (sync_on_append_) {
    if (::fsync(::fileno(file_.get())) != 0)
      throw util::InputError("record file: fsync failed on '" + path_ +
                             "': " + std::strerror(errno));
    ++synced_;
  }
  ++appended_;
  trace::metrics().counter(trace::metric::kStoreRecordsAppended).add();
}

}  // namespace opckit::store
