/// \file result_store.h
/// The persistent correction store: crash-safe on-disk reuse of solved
/// OPC pattern classes across runs, crashes, and layout revisions.
///
/// The paper's adoption story is operational — full-chip model OPC is
/// orders of magnitude more expensive per area than rule OPC (T3), so a
/// tapeout run that dies at tile 900/1000 and restarts from zero, or a
/// one-cell ECO that forces a full-chip re-correction, is exactly the
/// flow cost it warns about. The store makes the in-process correction
/// cache (core/correction_cache.h) durable: every freshly solved pattern
/// class is streamed to an append-only file as its tile completes, and a
/// later run — a resume after a crash, or an ECO re-correction of an
/// edited layout — preloads the file and replays every tile whose
/// D4-canonical optical neighborhood is unchanged. Tiles whose halo
/// context changed simply miss the preloaded entries and are re-solved;
/// invalidation is key-exact, never heuristic.
///
/// The same file also backs the pattern library (pattern/library.h):
/// there is one record — a solved tile plus optional warm-start seeds —
/// and one record file. `.ocs` and `.ocl` are names only; ResultStore is
/// the one reader and writer of both.
///
/// ## File format (version 2, little-endian)
///
/// ```
/// header  (24 bytes)
///   u8[8]  magic  "OPCKITS1"  — the family tag; the version is below
///   u32    version (2)
///   u64    fingerprint   — hash of every process knob replay depends on
///                          (optical model, OPC recipe, flow shape); see
///                          opc::flow_fingerprint. A file written under
///                          one setup must refuse replay under another.
///   u32    crc32 of the 20 bytes above
/// record  (repeated; one solved pattern class, canonical frame)
///   u32    payload length L
///   u8[L]  payload:
///            u8     witness orientation
///            rect   simulation frame            (rect = 4 x i64)
///            u32 n, rect[n]   window geometry
///            u32 n, rect[n]   ownership split
///            u32 n, { u32 m, (i64 x, i64 y)[m] }[n]   solution rings
///            u32 n, (i64 x, i64 y, i64 offset)[n]     warm-start seeds
///   u32    crc32(payload)
/// ```
///
/// Version 1 split this into two formats: `.ocs` stores (magic OPCKITS1)
/// without seeds and `.ocl` libraries (magic OPCKITL1) with a nested
/// tile payload. Both are refused with STO003 naming the old format
/// rather than read: every version-1 file carries a fingerprint from
/// before kImagingEngineRevision 1, so it would fail STO001 anyway.
///
/// ## Integrity contract
///
/// * Records append strictly after the serial merge phase of the flow
///   driver and are flushed per record — the writer is never touched by
///   a parallel phase, so the TSan job stays clean.
/// * A *torn tail* (file ends inside a record: a crash mid-write) is
///   recovered on load: the partial record is dropped, the valid prefix
///   is kept, and append_to() truncates the file back to it (STO002,
///   warning). Losing the last tile re-solves one tile; losing the file
///   re-solves the chip.
/// * Any *complete* record whose CRC or structure does not verify is
///   corruption, not a torn write: the load refuses (STO004). Same for a
///   malformed header or unknown version (STO003) and a fingerprint
///   mismatch (STO001) — a record file is never silently replayed into
///   the wrong process setup.
/// * Load-or-refuse is deterministic and allocation-bounded: lengths and
///   element counts are validated against the bytes actually present
///   before anything is allocated, so a corrupt file can never crash or
///   OOM the loader (the corpus tests run under ASan/UBSan).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "geometry/transform.h"
#include "lint/diagnostic.h"

namespace opckit::store {

/// One warm-start seed: a fragment evaluation site and the solved offset
/// along the fragment's outward normal. The offset is a signed scalar in
/// the normal direction, so it is invariant under the D4 frame maps the
/// records are stored in.
struct WarmSeed {
  geom::Point site;
  geom::Coord offset = 0;

  friend bool operator==(const WarmSeed&, const WarmSeed&) = default;
};

/// One persisted pattern class: the canonical-frame identity the
/// correction cache keys on (window geometry, ownership split, simulation
/// frame, witness orientation), the solved correction polygons in the
/// same canonical frame, and — for model-OPC solves — the per-fragment
/// warm-start seeds the pattern library retrieves by similarity. The
/// tile fields are the cache's Entry, field for field (see
/// opc::CorrectionCache::export_entry / import_entry).
struct TileRecord {
  std::vector<geom::Rect> window_rects;  ///< canonical window geometry
  std::vector<geom::Rect> own_rects;     ///< canonical ownership split
  geom::Rect frame = geom::Rect::empty();///< canonical simulation frame
  geom::Orientation orientation =        ///< representative's witness
      geom::Orientation::kR0;
  std::vector<geom::Polygon> solution;   ///< corrected own, canonical frame
  /// Canonical-frame seeds; empty for ILT solves, which carry no
  /// fragment offsets to warm-start from.
  std::vector<WarmSeed> seeds;

  friend bool operator==(const TileRecord&, const TileRecord&) = default;
};

/// True when \p a and \p b describe the same solved tile — every field
/// but the seeds. Two records of one tile are one pattern class, whatever
/// seeds they carry.
bool same_tile(const TileRecord& a, const TileRecord& b);

/// Result of loading a record file.
struct LoadResult {
  std::vector<TileRecord> records;  ///< every whole, verified record
  /// True when the file ended inside a record (torn write); the partial
  /// tail was dropped and valid_bytes points at the last whole record.
  bool tail_recovered = false;
  /// Byte length of the verified prefix (header + whole records). Pass
  /// to append_to() so new records land after the last good one.
  std::uint64_t valid_bytes = 0;
};

/// Append handle on a record file. Obtain via create() (fresh
/// file) or append_to() (extend a loaded file); append() writes and
/// flushes one record. Move-only.
///
/// The writer is an unbuffered stdio stream: each record is one write()
/// (a crash can tear at most the record in flight), and
/// \p sync_on_append upgrades that to write() + fsync().
/// The upgrade is opt-in and OFF by default — batch flows are served by
/// the torn-tail contract (a crash re-solves one tile) and per-record
/// fsync is a large constant cost, but the service daemon's durability
/// claim ("results already merged survive a daemon crash") needs the
/// data on the platter, not in the page cache, before the result frame
/// is acknowledged to the client.
class ResultStore {
 public:
  /// Create (truncate) \p path and write a version-2 header carrying
  /// \p fingerprint. Throws util::InputError on I/O failure.
  static ResultStore create(const std::string& path,
                            std::uint64_t fingerprint,
                            bool sync_on_append = false);

  /// Open \p path for appending after a successful load(): the file is
  /// first truncated to \p valid_bytes so a recovered torn tail can never
  /// precede fresh records. Throws util::InputError on I/O failure.
  static ResultStore append_to(const std::string& path,
                               std::uint64_t valid_bytes,
                               bool sync_on_append = false);

  /// Parse and verify \p path against \p expected_fingerprint.
  /// Refusals (malformed header, fingerprint mismatch, corrupt record)
  /// throw util::InputError whose message carries the STO diagnostic
  /// line; a recovered torn tail only warns. When \p report is non-null
  /// every diagnostic is also appended to it (STO001..STO004).
  static LoadResult load(const std::string& path,
                         std::uint64_t expected_fingerprint,
                         lint::LintReport* report = nullptr);

  /// Serialize, CRC, append, and flush one record.
  /// Throws util::InputError on I/O failure.
  void append(const TileRecord& record);

  const std::string& path() const { return path_; }
  /// Records appended through this handle.
  std::size_t appended() const { return appended_; }
  /// fsync-after-append policy this handle was opened with.
  bool sync_on_append() const { return sync_on_append_; }
  /// fsync() calls issued: equals appended() when sync_on_append is on
  /// (the header rides the first record's sync — fsync flushes the whole
  /// file), 0 when it is off. Exposed so tests can assert the flag is
  /// honored without instrumenting the kernel.
  std::size_t synced() const { return synced_; }

 private:
  /// Opens \p path with fopen() \p mode; throws util::InputError.
  ResultStore(std::string path, const char* mode, bool sync_on_append);
  /// Writes all of \p bytes in one write(); throws util::InputError.
  void write(const std::vector<std::uint8_t>& bytes);

  struct Close {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  std::string path_;
  std::unique_ptr<std::FILE, Close> file_;
  bool sync_on_append_ = false;
  std::size_t appended_ = 0;
  std::size_t synced_ = 0;
};

}  // namespace opckit::store
