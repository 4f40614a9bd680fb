/// The record file (store/result_store.h): format round trips plus the
/// one corrupt-file corpus over its one format. Every damaged input must
/// load or refuse deterministically (never crash, never touch the file
/// it refuses), and torn tails must recover. Each corpus case runs
/// through both readers of the file — ResultStore::load (suite
/// `ResultStore`) and PatternLibrary::open (suite `PatternLibrary`).
/// Runs under ASan/UBSan in CI (label `store`).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pattern/library.h"
#include "store/result_store.h"
#include "util/bytes.h"
#include "util/check.h"

namespace opckit::store {
namespace {

constexpr std::uint64_t kFp = 0x1234'5678'9abc'def0ULL;
constexpr std::size_t kHeaderSize = 24;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

/// A record whose window geometry is controlled by \p salt; odd salts
/// carry no seeds, like an ILT solve.
TileRecord sample_record(int salt = 0) {
  TileRecord rec;
  rec.window_rects = {geom::Rect(0, 0, 180, 1200 + salt),
                      geom::Rect(540, 0, 720, 1200)};
  rec.own_rects = {geom::Rect(0, 0, 180, 1200 + salt)};
  rec.frame = geom::Rect(-800, -800, 1520, 2000);
  rec.orientation = geom::Orientation::kR90;
  rec.solution = {
      geom::Polygon(geom::Rect(-4, -12, 184, 1212 + salt)),
      geom::Polygon({{540, 0}, {720, 0}, {720, 1212}, {540, 1212}})};
  if (salt % 2 == 0) {
    rec.seeds = {{geom::Point{90, 0}, 4 + salt}, {geom::Point{90, 1200}, -6}};
  }
  return rec;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
}

/// Rewrites the header CRC so checks after it (version, fingerprint)
/// are the ones that fire.
void forge_header_crc(std::vector<std::uint8_t>& bytes) {
  put_u32(bytes, kHeaderSize - 4, util::crc32(bytes.data(), kHeaderSize - 4));
}

/// A file with a seeded and an unseeded record, returned as raw bytes
/// for mutilation.
std::vector<std::uint8_t> good_file_bytes(const std::string& path) {
  auto store = ResultStore::create(path, kFp);
  store.append(sample_record(0));
  store.append(sample_record(7));
  return file_bytes(path);
}

// ---- the corpus, through both readers ------------------------------------

/// The two readers of a record file.
enum class Reader { kStore, kLibrary };

struct Opened {
  std::vector<TileRecord> records;
  bool tail_recovered = false;
};

Opened open_with(Reader via, const std::string& path,
                 lint::LintReport* report = nullptr) {
  if (via == Reader::kStore) {
    LoadResult loaded = ResultStore::load(path, kFp, report);
    return {std::move(loaded.records), loaded.tail_recovered};
  }
  const auto lib = pat::PatternLibrary::open(path, kFp, false);
  Opened opened{{}, lib.load_info().tail_recovered};
  for (std::size_t i = 0; i < lib.size(); ++i)
    opened.records.push_back(lib.record(i));
  return opened;
}

/// \p path must be refused through \p via with \p code, a message that
/// contains \p needle, one matching report finding, and no byte of the
/// file changed.
void expect_refused(Reader via, const std::string& path, const char* code,
                    const std::string& needle) {
  const std::vector<std::uint8_t> before = file_bytes(path);
  lint::LintReport report;
  try {
    open_with(via, path, &report);
    ADD_FAILURE() << path << " was not refused";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find(code), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
  if (via == Reader::kStore) {
    ASSERT_EQ(report.findings().size(), 1u);
    EXPECT_EQ(report.findings()[0].code, code);
    EXPECT_EQ(report.findings()[0].severity, lint::Severity::kError);
  }
  EXPECT_EQ(file_bytes(path), before);
}

/// One corpus case, registered under both readers' suites: \p store_name
/// runs it through ResultStore::load, \p library_name through
/// PatternLibrary::open.
#define RECORD_FILE_CASE(store_name, library_name)                         \
  void store_name##_case(Reader via, const std::string& path);             \
  TEST(ResultStore, store_name) {                                          \
    store_name##_case(Reader::kStore, temp_path(#store_name ".ocs"));      \
  }                                                                        \
  TEST(PatternLibrary, library_name) {                                     \
    store_name##_case(Reader::kLibrary, temp_path(#library_name ".ocl"));  \
  }                                                                        \
  void store_name##_case(Reader via, const std::string& path)

RECORD_FILE_CASE(RefusesWrongMagic, RefusesWrongMagic) {
  auto bytes = good_file_bytes(path);
  bytes[0] = 'X';
  write_bytes(path, bytes);
  expect_refused(via, path, "STO003", "magic");
}

RECORD_FILE_CASE(RefusesTruncatedHeader, RefusesTruncatedHeader) {
  auto bytes = good_file_bytes(path);
  bytes.resize(kHeaderSize / 2);
  write_bytes(path, bytes);
  expect_refused(via, path, "STO003", "too short");
}

RECORD_FILE_CASE(RefusesCorruptHeaderChecksum, RefusesCorruptHeaderChecksum) {
  auto bytes = good_file_bytes(path);
  bytes[12] ^= 0x01u;  // flip a fingerprint byte without re-forging CRC
  write_bytes(path, bytes);
  expect_refused(via, path, "STO003", "checksum");
}

RECORD_FILE_CASE(RefusesUnknownVersionWithValidChecksum,
                 RefusesUnknownVersionWithValidChecksum) {
  auto bytes = good_file_bytes(path);
  bytes[8] = 99;  // version field, little-endian low byte
  forge_header_crc(bytes);
  write_bytes(path, bytes);
  expect_refused(via, path, "STO003", "version 99");
}

RECORD_FILE_CASE(RefusesVersionOneFile, RefusesVersionOneFile) {
  // Both version-1 formats: the seedless `.ocs` store (same magic,
  // version 1) and the `.ocl` library with its own magic.
  auto bytes = good_file_bytes(path);
  bytes[8] = 1;
  forge_header_crc(bytes);
  write_bytes(path, bytes);
  expect_refused(via, path, "STO003", "version-1 correction store");

  bytes[6] = 'L';  // "OPCKITL1"
  forge_header_crc(bytes);
  write_bytes(path, bytes);
  expect_refused(via, path, "STO003", "version-1 pattern library");
}

RECORD_FILE_CASE(RefusesFingerprintMismatch, RefusesFingerprintMismatch) {
  ResultStore::create(path, kFp + 1);
  expect_refused(via, path, "STO001", "different process setup");
}

RECORD_FILE_CASE(RefusesFlippedRecordByte, RefusesFlippedRecordByte) {
  auto bytes = good_file_bytes(path);
  // Flip a byte inside the first record's payload (after length prefix).
  bytes[kHeaderSize + 4 + 3] ^= 0x40u;
  write_bytes(path, bytes);
  expect_refused(via, path, "STO004", "checksum");
}

RECORD_FILE_CASE(RefusesMalformedPayloadWithForgedChecksum,
                 RefusesMalformedPayloadWithForgedChecksum) {
  // A structurally bogus payload (orientation out of range) behind a
  // *valid* CRC must still be refused — the CRC authenticates bytes, the
  // parser authenticates structure.
  ResultStore::create(path, kFp);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  const std::uint8_t payload = 0xEE;
  bytes.insert(bytes.end(), {1, 0, 0, 0, payload, 0, 0, 0, 0});
  put_u32(bytes, bytes.size() - 4, util::crc32(&payload, 1));
  write_bytes(path, bytes);
  expect_refused(via, path, "STO004", "malformed");
}

RECORD_FILE_CASE(RecoversTornTail, RecoversTornTailAtEveryCut) {
  const auto bytes = good_file_bytes(path);
  const std::uint64_t second_start = [&] {
    const std::string one = path + ".one";
    ResultStore::create(one, kFp).append(sample_record(0));
    return std::filesystem::file_size(one);
  }();
  ASSERT_GT(second_start, kHeaderSize);
  ASSERT_LT(second_start, bytes.size());

  // Tear the file at every byte inside the second record: each prefix
  // recovers record 1 and reports the torn tail as a warning.
  for (std::size_t cut = second_start + 1; cut < bytes.size(); ++cut) {
    auto torn = bytes;
    torn.resize(cut);
    write_bytes(path, torn);
    lint::LintReport report;
    const Opened opened = open_with(via, path, &report);
    ASSERT_EQ(opened.records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(opened.records[0], sample_record(0));
    EXPECT_TRUE(opened.tail_recovered) << "cut=" << cut;
    if (via == Reader::kStore) {
      EXPECT_EQ(ResultStore::load(path, kFp).valid_bytes, second_start);
      ASSERT_EQ(report.findings().size(), 1u);
      EXPECT_EQ(report.findings()[0].code, "STO002");
      EXPECT_EQ(report.findings()[0].severity, lint::Severity::kWarning);
    } else {
      // open() truncates the torn bytes so inserts land after the last
      // whole record.
      EXPECT_EQ(std::filesystem::file_size(path), second_start);
    }
  }
}

RECORD_FILE_CASE(AppendAfterTornTailTruncatesGarbage,
                 AppendAfterTornTailHealsFile) {
  auto bytes = good_file_bytes(path);
  bytes.resize(bytes.size() - 3);  // tear inside the last record
  write_bytes(path, bytes);

  if (via == Reader::kStore) {
    const LoadResult loaded = ResultStore::load(path, kFp);
    ASSERT_TRUE(loaded.tail_recovered);
    ResultStore::append_to(path, loaded.valid_bytes).append(sample_record(42));
  } else {
    auto lib = pat::PatternLibrary::open(path, kFp, false);
    ASSERT_TRUE(lib.load_info().tail_recovered);
    EXPECT_TRUE(lib.insert(sample_record(42)));
  }
  // The healed file has no trace of the torn bytes.
  const Opened healed = open_with(via, path);
  EXPECT_FALSE(healed.tail_recovered);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_EQ(healed.records[0], sample_record(0));
  EXPECT_EQ(healed.records[1], sample_record(42));
}

// ---- the store's own writer ------------------------------------------------

TEST(ResultStore, RoundTripsRecords) {
  const std::string path = temp_path("store_roundtrip.ocs");
  {
    auto store = ResultStore::create(path, kFp);
    store.append(sample_record(0));
    store.append(sample_record(7));
    EXPECT_EQ(store.appended(), 2u);
  }
  const LoadResult loaded = ResultStore::load(path, kFp);
  EXPECT_FALSE(loaded.tail_recovered);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[0], sample_record(0));  // seeds round-trip
  EXPECT_EQ(loaded.records[1], sample_record(7));  // and so does none
  EXPECT_EQ(loaded.valid_bytes, std::filesystem::file_size(path));
}

TEST(ResultStore, EmptyStoreLoadsCleanly) {
  const std::string path = temp_path("store_empty.ocs");
  ResultStore::create(path, kFp);
  const LoadResult loaded = ResultStore::load(path, kFp);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_FALSE(loaded.tail_recovered);
  EXPECT_EQ(loaded.valid_bytes, kHeaderSize);
}

TEST(ResultStore, AppendToExtendsAfterLoad) {
  const std::string path = temp_path("store_extend.ocs");
  ResultStore::create(path, kFp).append(sample_record(0));
  const LoadResult first = ResultStore::load(path, kFp);
  ResultStore::append_to(path, first.valid_bytes).append(sample_record(7));
  const LoadResult both = ResultStore::load(path, kFp);
  ASSERT_EQ(both.records.size(), 2u);
  EXPECT_EQ(both.records[1], sample_record(7));
}

TEST(ResultStore, MissingFileThrows) {
  EXPECT_THROW(ResultStore::load(temp_path("store_nope.ocs"), kFp),
               util::InputError);
}

TEST(ResultStore, SyncOnAppendOffByDefault) {
  const std::string path = temp_path("store_nosync.ocs");
  auto store = ResultStore::create(path, kFp);
  EXPECT_FALSE(store.sync_on_append());
  store.append(sample_record(0));
  store.append(sample_record(7));
  EXPECT_EQ(store.appended(), 2u);
  // The default path must never pay for fsync: no syncs were issued.
  EXPECT_EQ(store.synced(), 0u);
}

TEST(ResultStore, SyncOnAppendFsyncsEveryRecord) {
  const std::string path = temp_path("store_sync.ocs");
  {
    auto store = ResultStore::create(path, kFp, /*sync_on_append=*/true);
    EXPECT_TRUE(store.sync_on_append());
    store.append(sample_record(0));
    EXPECT_EQ(store.synced(), 1u);
    store.append(sample_record(7));
    EXPECT_EQ(store.synced(), 2u);
    EXPECT_EQ(store.synced(), store.appended());
  }
  // Continuation handles honor the flag too, counting only their own
  // appends.
  const LoadResult loaded = ResultStore::load(path, kFp);
  ASSERT_EQ(loaded.records.size(), 2u);
  {
    auto store =
        ResultStore::append_to(path, loaded.valid_bytes, /*sync=*/true);
    EXPECT_TRUE(store.sync_on_append());
    EXPECT_EQ(store.synced(), 0u);
    store.append(sample_record(42));
    EXPECT_EQ(store.synced(), 1u);
  }
  const LoadResult all = ResultStore::load(path, kFp);
  ASSERT_EQ(all.records.size(), 3u);
  EXPECT_EQ(all.records[2], sample_record(42));
}

}  // namespace
}  // namespace opckit::store
