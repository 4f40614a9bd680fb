#include "core/correction_cache.h"

#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::opc {

using geom::Point;
using geom::Polygon;
using geom::Rect;
using geom::Region;
using geom::Transform;

const char* to_string(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kSymmetryHit:
      return "symmetry-hit";
    case CacheOutcome::kConflict:
      return "conflict";
  }
  return "?";
}

Transform CorrectionCache::canonical_transform(const Key& key) {
  return Transform(key.orientation, {0, 0}) * Transform(-key.anchor);
}

namespace {

/// Layout frame -> canonical frame: translate the anchor to the origin,
/// then apply the canonicalization witness orientation.
Transform to_canonical(const CorrectionCache::Key& key) {
  return CorrectionCache::canonical_transform(key);
}

}  // namespace

CorrectionCache::Key CorrectionCache::make_key(
    const std::vector<Polygon>& targets, const Region& own_region,
    const Rect& frame) {
  Key key;
  // Anchor at the window's bbox center: canonicalization orients about
  // the origin, so only a centered window maps onto its own D4 copies
  // (pattern windows are extracted centered for the same reason). Any
  // rigid anchor would do for translation matching; centering additionally
  // makes the opt-in symmetry matching effective. The midpoint truncation
  // is a pure function of the local geometry, so translated copies always
  // agree on it (odd-sized D4 copies may disagree by 1 nm and miss —
  // a conservative failure).
  const Rect b = Region::from_polygons(targets).bbox();
  key.anchor = Point{(b.lo.x + b.hi.x) / 2, (b.lo.y + b.hi.y) / 2};
  const Region local =
      Region::from_polygons(targets).translated(-key.anchor);
  pat::OrientedCanonical canon = pat::canonicalize_oriented(local);
  key.orientation = canon.orientation;
  key.window = std::move(canon.pattern);
  key.own_canonical =
      pat::oriented(own_region.translated(-key.anchor), key.orientation)
          .rects();
  key.frame =
      Transform(key.orientation, {0, 0})(frame.translated(-key.anchor));
  return key;
}

CorrectionCache::Resolution CorrectionCache::resolve(const Key& key) {
  auto bucket = by_hash_.find(key.window.hash);
  if (bucket != by_hash_.end()) {
    bool mismatch = false;
    std::size_t symmetry_match = SIZE_MAX;
    for (std::size_t idx : bucket->second) {
      const store::TileRecord& e = entries_[idx].tile;
      if (e.window_rects != key.window.rects ||
          e.own_rects != key.own_canonical || e.frame != key.frame) {
        // Same canonical hash, different geometry (collision), a
        // different target/context ownership split, or a different
        // simulation frame (the raster grid hangs off it): unusable.
        mismatch = true;
        continue;
      }
      // Exact canonical match. Pure translations of one another reach
      // the same canonical form through the same witness orientation
      // (canonicalize_oriented is deterministic on identical local
      // geometry), so an equal witness means translation-exact reuse;
      // a different witness means the windows differ by a genuine D4
      // frame change, which only the symmetry policy may accept — and
      // even then an exact hit later in the bucket is preferred.
      if (key.orientation == e.orientation) {
        ++stats_.hits;
        trace::metrics().counter(trace::metric::kCacheHits).add();
        return {CacheOutcome::kHit, idx};
      }
      if (symmetry_match == SIZE_MAX) symmetry_match = idx;
    }
    if (policy_.allow_symmetry && symmetry_match != SIZE_MAX) {
      ++stats_.symmetry_hits;
      trace::metrics().counter(trace::metric::kCacheSymmetryHits).add();
      return {CacheOutcome::kSymmetryHit, symmetry_match};
    }
    if (mismatch && symmetry_match == SIZE_MAX) {
      ++stats_.conflicts;
      trace::metrics().counter(trace::metric::kCacheConflicts).add();
      return {CacheOutcome::kConflict, reserve(key)};
    }
  }
  ++stats_.misses;
  trace::metrics().counter(trace::metric::kCacheMisses).add();
  return {CacheOutcome::kMiss, reserve(key)};
}

void CorrectionCache::store(std::size_t entry, const Key& key,
                            const std::vector<Polygon>& corrected) {
  OPCKIT_CHECK(entry < entries_.size());
  Entry& e = entries_[entry];
  OPCKIT_DCHECK(e.tile.window_rects == key.window.rects);
  const Transform t = to_canonical(key);
  e.tile.solution.clear();
  e.tile.solution.reserve(corrected.size());
  for (const Polygon& p : corrected) e.tile.solution.push_back(t(p));
  e.solved = true;
}

std::vector<Polygon> CorrectionCache::fetch(std::size_t entry,
                                            const Key& key) const {
  OPCKIT_CHECK(entry < entries_.size());
  const Entry& e = entries_[entry];
  OPCKIT_CHECK_MSG(e.solved, "fetch before the representative stored");
  const Transform t = to_canonical(key).inverted();
  std::vector<Polygon> out;
  out.reserve(e.tile.solution.size());
  for (const Polygon& p : e.tile.solution) out.push_back(t(p));
  return out;
}

store::TileRecord CorrectionCache::export_entry(std::size_t entry) const {
  OPCKIT_CHECK(entry < entries_.size());
  OPCKIT_CHECK_MSG(entries_[entry].solved,
                   "export of an unsolved cache entry");
  return entries_[entry].tile;
}

std::size_t CorrectionCache::import_entry(const store::TileRecord& record) {
  return add({record, true}, pat::hash_rects(record.window_rects));
}

std::size_t CorrectionCache::reserve(const Key& key) {
  Entry e;
  e.tile.window_rects = key.window.rects;
  e.tile.own_rects = key.own_canonical;
  e.tile.frame = key.frame;
  e.tile.orientation = key.orientation;
  return add(std::move(e), key.window.hash);
}

std::size_t CorrectionCache::add(Entry e, std::uint64_t hash) {
  entries_.push_back(std::move(e));
  by_hash_[hash].push_back(entries_.size() - 1);
  return entries_.size() - 1;
}

}  // namespace opckit::opc
