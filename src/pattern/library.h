/// \file library.h
/// The pattern library: an in-memory index of solved records with
/// near-match retrieval.
///
/// The run-local CorrectionCache answers "have I solved *exactly* this
/// window before" (up to translation and, opt-in, D4). The library extends
/// reuse across runs and across *similar* patterns:
///
///  - every entry is one store::TileRecord — the exact-replay tile,
///    importable into the CorrectionCache, plus the solved per-fragment
///    warm-start seeds in the same canonical frame (none for ILT solves);
///  - a feature-space index (feature.h) retrieves the nearest seeded
///    entry under a caller-set distance budget, pruned by the triangle
///    inequality on cached L2 norms — deterministic, ties broken by
///    insertion order. Entries without seeds replay but never warm-start;
///  - inserts deduplicate by tile (a window-hash prefilter, then full
///    tile equality; the first record of a tile wins).
///
/// Persistence is the record file's (store/result_store.h): open() loads
/// a file through store::ResultStore and attaches a store writer, so the
/// library and the correction store share one format, one torn-tail
/// contract and one refusal contract (STO001-STO004).
///
/// Thread safety: none. The flow touches the library only from its serial
/// phases; the daemon serializes access under the CorrectionLibrary mutex
/// and hands jobs immutable clones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pattern/feature.h"
#include "store/result_store.h"

namespace opckit::pat {

/// A retrieval result: which entry, and how far in feature space.
struct NearMatch {
  std::size_t index = 0;
  double distance = 0.0;
};

/// What loading an existing library file found.
struct LibraryLoadInfo {
  std::size_t records_loaded = 0;
  bool tail_recovered = false;
};

/// The pattern library. Default-constructed instances are memory-only;
/// open() attaches a record file that every insert() appends to.
/// Move-only (it may own the file's writer); clone_memory() produces a
/// detached snapshot for concurrent readers.
class PatternLibrary {
 public:
  /// Open a file-backed library: load \p path through store::ResultStore
  /// if it exists (refusing per STO001-STO004, recovering a torn tail)
  /// or create it, then append every insert to it. Throws
  /// util::InputError on I/O failure or refusal; the file is untouched
  /// when it is refused.
  static PatternLibrary open(const std::string& path,
                             std::uint64_t fingerprint,
                             bool sync_on_append = true);

  /// Insert an entry; appends to the attached file when file-backed.
  /// A record whose tile is already present is dropped; returns true
  /// when the entry was actually inserted.
  bool insert(const store::TileRecord& rec);

  std::size_t size() const { return records_.size(); }
  const store::TileRecord& record(std::size_t i) const { return records_[i]; }
  const PatternFeature& feature(std::size_t i) const { return features_[i]; }

  /// Nearest seeded entry whose feature distance to \p query is <=
  /// \p budget, or nullopt. Deterministic: exact distance comparison,
  /// ties broken toward the smallest entry index.
  std::optional<NearMatch> nearest(const PatternFeature& query,
                                   double budget) const;

  /// What open() found on disk (zeros for memory-only libraries).
  const LibraryLoadInfo& load_info() const { return load_info_; }

  /// Detached memory-only copy of all entries and the index (no file
  /// writer) — safe to share read-only across threads.
  PatternLibrary clone_memory() const;

 private:
  /// Index \p rec and keep it; no dedup, no file write.
  void add(store::TileRecord rec, std::uint64_t window_hash);

  std::vector<store::TileRecord> records_;
  std::vector<PatternFeature> features_;
  /// (norm, index) of the seeded entries, sorted — the pruned scan order.
  std::vector<std::pair<double, std::size_t>> by_norm_;
  /// (window hash, index), sorted — the dedup prefilter.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_hash_;
  LibraryLoadInfo load_info_;
  std::optional<store::ResultStore> writer_;
};

}  // namespace opckit::pat
