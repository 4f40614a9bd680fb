/// SOCS kernel-imaging suite: Abbe-vs-SOCS aerial parity across process
/// corners, relative-eigenvalue truncation and dense-source
/// compression, KernelCache reuse, the determinism of both engines'
/// chunked reductions, and both engines' band-limited sums against the
/// full-frame sums they replace.
///
/// Labelled `socs` (tests/CMakeLists.txt) so tools/ci.sh can gate the
/// ASan and TSan jobs on this suite explicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/flow.h"
#include "core/model.h"
#include "layout/generators.h"
#include "litho/litho.h"
#include "trace/metrics.h"
#include "util/thread_pool.h"

namespace opckit::litho {
namespace {

Frame test_frame(std::size_t n = 128) {
  Frame f;
  f.origin = {-512, -512};
  f.pixel_nm = 8.0;
  f.nx = n;
  f.ny = n;
  return f;
}

OpticalSystem test_optics() {
  OpticalSystem sys;
  sys.source.grid = 5;  // ~12 points: fast, still genuinely extended
  return sys;
}

/// A mask with 1-D and 2-D content: two vertical lines and a contact.
Image test_mask(const Frame& frame) {
  const std::vector<geom::Rect> rects = {geom::Rect(-90, -400, 90, 400),
                                         geom::Rect(270, -400, 430, 400),
                                         geom::Rect(-350, -150, -200, 0)};
  return rasterize(geom::Region::from_rects(rects), frame);
}

double max_abs_diff(const Image& a, const Image& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    m = std::max(m, std::abs(a.values()[i] - b.values()[i]));
  }
  return m;
}

struct ProcessCorner {
  const char* name;
  OpticalSystem sys;
  double defocus_nm = 0.0;
  MaskModel mask;
};

ProcessCorner corner(const char* name) {
  ProcessCorner c;
  c.name = name;
  c.sys = test_optics();
  return c;
}

std::vector<ProcessCorner> process_corners() {
  std::vector<ProcessCorner> corners;
  corners.push_back(corner("annular_nominal"));
  {
    ProcessCorner c = corner("circular");
    c.sys.source.shape = SourceShape::kCircular;
    c.sys.source.sigma_outer = 0.60;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("dipole_x");
    c.sys.source.shape = SourceShape::kDipoleX;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("defocus");
    c.defocus_nm = 150.0;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("coma");
    c.sys.aberrations.coma_x_nm = 20.0;
    c.sys.aberrations.coma_y_nm = -12.0;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("astig_defocus");
    c.sys.aberrations.astig_nm = 15.0;
    c.defocus_nm = -100.0;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("att_psm");
    c.mask.type = MaskType::kAttenuatedPsm;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("psm_defocus_aberrated");
    c.mask.type = MaskType::kAttenuatedPsm;
    c.defocus_nm = 120.0;
    c.sys.aberrations.coma_y_nm = 10.0;
    corners.push_back(c);
  }
  return corners;
}

// Acceptance criterion: max aerial-intensity deviation vs Abbe <= 1e-3
// at ε = 1e-4, across source shapes, defocus, aberrations, and PSM.
TEST(Socs, MatchesAbbeAcrossProcessCorners) {
  const Frame frame = test_frame();
  const Image mask = test_mask(frame);
  for (const ProcessCorner& c : process_corners()) {
    KernelCache::instance().clear();
    const AbbeImager abbe(c.sys, frame);
    const SocsImager socs(c.sys, frame, SocsOptions{1e-4});
    const Image ref = abbe.aerial_image(mask, c.defocus_nm, c.mask);
    const Image img = socs.aerial_image(mask, c.defocus_nm, c.mask);
    EXPECT_LE(max_abs_diff(ref, img), 1e-3) << c.name;
  }
}

TEST(Socs, ClearFieldNormalizesToOne) {
  const Frame frame = test_frame(64);
  KernelCache::instance().clear();
  const SocsImager socs(test_optics(), frame, SocsOptions{1e-4});
  const Image img = socs.aerial_image(Image(frame, 1.0));
  for (double v : img.values()) EXPECT_NEAR(v, 1.0, 1e-3);
}

// Truncation is a relative-eigenvalue cutoff (keep λ_k ≥ ε·λ_max), so
// the kept count tracks the continuous-TCC spectrum and SATURATES as
// the source grid densifies while |S| keeps growing — that gap is the
// whole speedup. (A captured-energy criterion would keep nearly all
// |S| eigenpairs at tight tolerances: the discrete spectrum's tail is
// flat, each coarsely-sampled source point carrying its own sliver.)
TEST(Socs, KernelSetCompressesDenseSource) {
  const Frame frame = test_frame();
  OpticalSystem dense = test_optics();
  dense.source.grid = 21;  // ~212 points — production-dense sampling
  const SocsKernelSet set =
      build_socs_kernels(dense, frame, 0.0, SocsOptions{1e-3});
  EXPECT_EQ(set.source_points, sample_source(dense).size());
  EXPECT_GT(set.energy_captured, 0.97);
  EXPECT_LE(set.energy_captured, 1.0 + 1e-12);
  ASSERT_GE(set.kernels.size(), 1u);
  EXPECT_LT(set.kernels.size(), set.source_points / 3)
      << "dense-source kernel count should sit far below |S|";
  // Every kept weight clears the relative cutoff, descending, and each
  // kernel is unit-normalized (||φ_k||² = 1).
  const double lambda_max = set.kernels.front().weight;
  for (std::size_t k = 0; k < set.kernels.size(); ++k) {
    const SocsKernel& ker = set.kernels[k];
    EXPECT_GE(ker.weight, 1e-3 * lambda_max);
    if (k > 0) {
      EXPECT_LE(ker.weight, set.kernels[k - 1].weight);
    }
    double norm2 = 0.0;
    for (const Complex& v : ker.value) norm2 += std::norm(v);
    EXPECT_NEAR(norm2, 1.0, 1e-9);
  }
  // Saturation: nearly doubling the source density must not come close
  // to doubling the kernel count.
  OpticalSystem sparser = test_optics();
  sparser.source.grid = 15;
  const SocsKernelSet half =
      build_socs_kernels(sparser, frame, 0.0, SocsOptions{1e-3});
  ASSERT_GE(set.source_points, half.source_points * 9 / 5);
  EXPECT_LE(set.kernels.size(), half.kernels.size() + 8);
}

TEST(Socs, TighterEpsilonKeepsMoreKernels) {
  const Frame frame = test_frame();
  OpticalSystem sys = test_optics();
  sys.source.grid = 9;
  const SocsKernelSet coarse =
      build_socs_kernels(sys, frame, 0.0, SocsOptions{1e-2});
  const SocsKernelSet fine =
      build_socs_kernels(sys, frame, 0.0, SocsOptions{1e-6});
  EXPECT_LT(coarse.kernels.size(), fine.kernels.size());
  EXPECT_GE(fine.energy_captured, coarse.energy_captured);
}

TEST(Socs, KernelCacheReusesSetsAcrossImagersAndDefocus) {
  const Frame frame = test_frame(64);
  const OpticalSystem sys = test_optics();
  const Image mask = test_mask(frame);
  KernelCache::instance().clear();
  const auto before = trace::metrics().snapshot();

  const SocsImager a(sys, frame);
  const SocsImager b(sys, frame);  // same process key, distinct instance
  a.aerial_image(mask);
  a.aerial_image(mask);            // hit
  b.aerial_image(mask);            // hit (cache is process-wide)
  a.aerial_image(mask, 150.0);     // new defocus -> new set
  Frame shifted = frame;
  shifted.origin = {1000, -3000};  // origin is NOT part of the key
  const SocsImager c(sys, shifted);
  const std::vector<geom::Rect> far_rects = {
      geom::Rect(1100, -2900, 1300, -2500)};
  c.aerial_image(
      rasterize(geom::Region::from_rects(far_rects), shifted));  // hit

  const KernelCache::Stats stats = KernelCache::instance().stats();
  EXPECT_EQ(stats.sets_built, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(KernelCache::instance().size(), 2u);

  const auto delta =
      trace::MetricsSnapshot::delta(before, trace::metrics().snapshot());
  EXPECT_EQ(delta.counters.at(trace::metric::kLithoSocsKernelSetsBuilt), 2u);
  EXPECT_EQ(delta.counters.at(trace::metric::kLithoSocsCacheHits), 3u);
  EXPECT_GE(delta.counters.at(trace::metric::kLithoSocsKernelsBuilt), 2u);
  EXPECT_GE(delta.gauges.at(trace::metric::kLithoSocsEnergyCaptured),
            2.0 * 0.99);
}

// The chunked Abbe reduction replaced a materialize-everything buffer;
// its contract is bit-identical output whether the per-source loop runs
// on the global pool (caller on the main thread) or inline (caller is
// already a pool worker — nested parallel_for degenerates to serial).
TEST(Socs, AbbeChunkedReductionDeterministicAcrossThreadCounts) {
  const Frame frame = test_frame();
  OpticalSystem sys = test_optics();
  sys.source.grid = 7;  // > one chunk worth of source points
  const Image mask = test_mask(frame);
  const AbbeImager abbe(sys, frame);
  const Image ref = abbe.aerial_image(mask, 80.0);
  for (std::size_t workers : {1u, 2u, 8u}) {
    Image img(frame);
    util::ThreadPool pool(workers);
    pool.parallel_for(1, [&](std::size_t) {
      img = abbe.aerial_image(mask, 80.0);
    });
    EXPECT_EQ(img.values(), ref.values()) << "workers=" << workers;
  }
}

TEST(Socs, SocsImageDeterministicAcrossThreadCounts) {
  const Frame frame = test_frame();
  const OpticalSystem sys = test_optics();
  const Image mask = test_mask(frame);
  KernelCache::instance().clear();
  const SocsImager socs(sys, frame);
  const Image ref = socs.aerial_image(mask);
  for (std::size_t workers : {2u, 8u}) {
    Image img(frame);
    util::ThreadPool pool(workers);
    pool.parallel_for(1,
                      [&](std::size_t) { img = socs.aerial_image(mask); });
    EXPECT_EQ(img.values(), ref.values()) << "workers=" << workers;
  }
}

// Acceptance criterion: model OPC driven by SOCS converges to the same
// corrections as the Abbe reference within 0.5 nm of EPE.
TEST(Socs, ModelOpcEpeMatchesAbbeWithinHalfNanometer) {
  const std::vector<geom::Polygon> targets = {
      geom::Polygon(geom::Rect(-90, -600, 90, 600)),
      geom::Polygon(geom::Rect(270, -600, 430, 200))};
  const geom::Rect window(-600, -800, 900, 800);
  opc::ModelOpcSpec opc_spec;
  opc_spec.max_iterations = 6;

  litho::SimSpec abbe;
  abbe.optics.source.grid = 5;
  calibrate_threshold(abbe, 180, 360);
  litho::SimSpec socs = abbe;
  socs.imaging = ImagingMode::kSocs;
  calibrate_threshold(socs, 180, 360);  // calibrate under its own engine
  EXPECT_NEAR(abbe.resist.threshold, socs.resist.threshold, 1e-3);

  const auto ra = opc::run_model_opc(targets, abbe, window, opc_spec);
  const auto rs = opc::run_model_opc(targets, socs, window, opc_spec);
  EXPECT_NEAR(ra.final_iteration().rms_epe_nm,
              rs.final_iteration().rms_epe_nm, 0.5);
  EXPECT_NEAR(ra.final_iteration().max_abs_epe_nm,
              rs.final_iteration().max_abs_epe_nm, 0.5);
}

/// Mask spectrum exactly as both engines form it: coverage ->
/// transmission -> planned r2c forward.
std::vector<Complex> mask_spectrum(const Image& mask, const MaskModel& mm) {
  const Frame& f = mask.frame();
  const double t_bg = mm.background_amplitude();
  std::vector<double> trans(mask.values().size());
  for (std::size_t i = 0; i < trans.size(); ++i) {
    const double c = mask.values()[i];
    trans[i] = c + (1.0 - c) * t_bg;
  }
  std::vector<Complex> spectrum;
  Fft2d(f.nx, f.ny).forward_real(trans, spectrum);
  return spectrum;
}

/// The full-frame SOCS sum the band-limited grid replaces: the cached
/// set's kernels through one frame-sized batch.
Image socs_full_frame(const OpticalSystem& sys, const Image& mask,
                      double defocus_nm, const MaskModel& mm, double eps) {
  const Frame& f = mask.frame();
  const auto set =
      KernelCache::instance().get(sys, f, defocus_nm, mm, SocsOptions{eps});
  const std::vector<Complex> spectrum = mask_spectrum(mask, mm);
  const SparseInverseBatch batch(Fft2d(f.nx, f.ny), set->support);
  Image out(f, 0.0);
  detail::weighted_intensity_sum(
      set->kernels.size(), out.values().size(),
      [&](std::size_t k, std::vector<double>& img) {
        batch.inverse_mag2(spectrum.data(), set->kernels[k].value, img);
      },
      [&](std::size_t k) { return set->kernels[k].weight; }, out.values());
  return out;
}

/// The full-frame Abbe sum: one frame-sized batch per source point over
/// its shifted-pupil support.
Image abbe_full_frame(const OpticalSystem& sys, const Image& mask,
                      double defocus_nm, const MaskModel& mm) {
  const Frame& f = mask.frame();
  const std::vector<Complex> spectrum = mask_spectrum(mask, mm);
  const std::vector<SourcePoint> source = sample_source(sys);
  const Fft2d fft(f.nx, f.ny);
  Image out(f, 0.0);
  detail::weighted_intensity_sum(
      source.size(), out.values().size(),
      [&](std::size_t s, std::vector<double>& img) {
        std::vector<std::uint32_t> support;
        std::vector<Complex> pupil;
        for (std::size_t ky = 0; ky < f.ny; ++ky) {
          const double fy = fft_freq(ky, f.ny) / f.pixel_nm + source[s].fy;
          for (std::size_t kx = 0; kx < f.nx; ++kx) {
            const double fx = fft_freq(kx, f.nx) / f.pixel_nm + source[s].fx;
            const Complex t = pupil_transmission(sys, fx, fy, defocus_nm);
            if (t == Complex{0.0, 0.0}) continue;
            support.push_back(static_cast<std::uint32_t>(ky * f.nx + kx));
            pupil.push_back(t);
          }
        }
        SparseInverseBatch(fft, support)
            .inverse_mag2(spectrum.data(), pupil, img);
      },
      [&](std::size_t s) { return source[s].weight; }, out.values());
  return out;
}

std::uint64_t band_limited_images() {
  return trace::metrics()
      .counter(trace::metric::kLithoBandLimitedImages)
      .value();
}

// The production case: a grid-21 annular source on a 256² frame puts
// every kernel on a ±10-bin support, so the sum runs on 64x64 and must
// still match the full-frame sum to rounding.
TEST(BandLimitedImaging, SocsGrid21AnnularRunsOn64GridAndMatchesFullFrame) {
  const Frame frame = test_frame(256);
  OpticalSystem sys = test_optics();
  sys.source.grid = 21;
  KernelCache::instance().clear();
  const auto set =
      KernelCache::instance().get(sys, frame, 0.0, {}, SocsOptions{1e-3});
  ASSERT_TRUE(set->grid.has_value());
  EXPECT_EQ(set->grid->grid().nx(), 64u);
  EXPECT_EQ(set->grid->grid().ny(), 64u);

  const Image mask = test_mask(frame);
  const SocsImager socs(sys, frame, SocsOptions{1e-3});
  const std::uint64_t before = band_limited_images();
  const Image img = socs.aerial_image(mask);
  EXPECT_EQ(band_limited_images(), before + 1);
  EXPECT_LE(max_abs_diff(img, socs_full_frame(sys, mask, 0.0, {}, 1e-3)),
            1e-12);
}

struct BandCase {
  std::string name;
  OpticalSystem sys;
  Frame frame;
  double defocus_nm = 0.0;
  MaskModel mask;
};

/// Grid-5 cases: the process corners above (defocus, aberrations,
/// att-PSM, dipole) plus a non-square 256x128 frame.
std::vector<BandCase> band_cases() {
  std::vector<BandCase> cases;
  for (const ProcessCorner& c : process_corners()) {
    cases.push_back({c.name, c.sys, test_frame(), c.defocus_nm, c.mask});
  }
  Frame wide = test_frame(256);
  wide.ny = 128;
  cases.push_back({"non_square_256x128", test_optics(), wide, 0.0, {}});
  BandCase psm{"non_square_psm_defocus", test_optics(), wide, 90.0, {}};
  psm.mask.type = MaskType::kAttenuatedPsm;
  cases.push_back(psm);
  return cases;
}

TEST(BandLimitedImaging, SocsMatchesFullFrameSumAcrossCorners) {
  for (const BandCase& c : band_cases()) {
    KernelCache::instance().clear();
    const Image mask = test_mask(c.frame);
    const SocsImager socs(c.sys, c.frame, SocsOptions{1e-4});
    const std::uint64_t before = band_limited_images();
    const Image img = socs.aerial_image(mask, c.defocus_nm, c.mask);
    EXPECT_EQ(band_limited_images(), before + 1) << c.name;
    const Image ref =
        socs_full_frame(c.sys, mask, c.defocus_nm, c.mask, 1e-4);
    EXPECT_LE(max_abs_diff(img, ref), 1e-12) << c.name;
  }
}

TEST(BandLimitedImaging, AbbeMatchesFullFrameSumAcrossCorners) {
  for (const BandCase& c : band_cases()) {
    const Image mask = test_mask(c.frame);
    const AbbeImager abbe(c.sys, c.frame);
    const std::uint64_t before = band_limited_images();
    const Image img = abbe.aerial_image(mask, c.defocus_nm, c.mask);
    EXPECT_EQ(band_limited_images(), before + 1) << c.name;
    const Image ref = abbe_full_frame(c.sys, mask, c.defocus_nm, c.mask);
    EXPECT_LE(max_abs_diff(img, ref), 1e-12) << c.name;
  }
}

TEST(BandLimitedImaging, ClearFieldStaysOneAndDarkFieldStaysZero) {
  const Frame frame = test_frame();
  const OpticalSystem sys = test_optics();
  KernelCache::instance().clear();
  const AbbeImager abbe(sys, frame);
  const SocsImager socs(sys, frame, SocsOptions{1e-4});
  const Image clear(frame, 1.0), dark(frame, 0.0);

  // Abbe is exact: a clear field images to 1 everywhere. SOCS carries
  // its truncation error, so it must equal its own full-frame sum.
  const Image abbe_clear = abbe.aerial_image(clear);
  for (double v : abbe_clear.values()) EXPECT_NEAR(v, 1.0, 1e-12);
  EXPECT_LE(max_abs_diff(socs.aerial_image(clear),
                         socs_full_frame(sys, clear, 0.0, {}, 1e-4)),
            1e-12);
  // A dark binary mask has an all-zero spectrum: exactly 0, no
  // interpolation noise.
  const Image abbe_dark = abbe.aerial_image(dark);
  const Image socs_dark = socs.aerial_image(dark);
  for (double v : abbe_dark.values()) EXPECT_EQ(v, 0.0);
  for (double v : socs_dark.values()) EXPECT_EQ(v, 0.0);
}

TEST(BandLimitedImaging, BothEnginesDeterministicAcrossThreadCounts) {
  Frame frame = test_frame(256);
  frame.ny = 128;
  OpticalSystem sys = test_optics();
  sys.source.grid = 7;  // > one reduction chunk of source points
  const Image mask = test_mask(frame);
  KernelCache::instance().clear();
  const AbbeImager abbe(sys, frame);
  const SocsImager socs(sys, frame);
  const std::uint64_t before = band_limited_images();
  const Image abbe_ref = abbe.aerial_image(mask, 60.0);
  const Image socs_ref = socs.aerial_image(mask, 60.0);
  EXPECT_EQ(band_limited_images(), before + 2);
  for (std::size_t workers : {1u, 2u, 8u}) {
    Image a(frame), s(frame);
    util::ThreadPool pool(workers);
    pool.parallel_for(2, [&](std::size_t i) {
      if (i == 0) {
        a = abbe.aerial_image(mask, 60.0);
      } else {
        s = socs.aerial_image(mask, 60.0);
      }
    });
    EXPECT_EQ(a.values(), abbe_ref.values()) << "workers=" << workers;
    EXPECT_EQ(s.values(), socs_ref.values()) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace opckit::litho

namespace opckit::opc {
namespace {

litho::SimSpec socs_sim() {
  litho::SimSpec sim;
  sim.optics.source.grid = 5;
  sim.imaging = litho::ImagingMode::kSocs;
  litho::calibrate_threshold(sim, 180, 360);
  return sim;
}

layout::Library socs_chip(int cols, int rows) {
  layout::Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, {1400, 1800});
  return lib;
}

// The flow-level face of the determinism contract: a SOCS flat flow is
// byte-identical at jobs 1 and 8 (kernel sets shared across workers).
TEST(SocsFlow, FlatOutputIdenticalAcrossJobCounts) {
  FlowSpec spec;
  spec.sim = socs_sim();
  spec.opc.max_iterations = 3;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  spec.cache = false;

  spec.jobs = 1;
  layout::Library serial = socs_chip(2, 2);
  run_flat_opc(serial, "top", spec);
  const auto ref_span = serial.at("top").shapes(spec.output_layer);
  const std::vector<geom::Polygon> ref(ref_span.begin(), ref_span.end());
  ASSERT_FALSE(ref.empty());

  spec.jobs = 8;
  layout::Library parallel = socs_chip(2, 2);
  run_flat_opc(parallel, "top", spec);
  const auto got_span = parallel.at("top").shapes(spec.output_layer);
  EXPECT_EQ(std::vector<geom::Polygon>(got_span.begin(), got_span.end()),
            ref);
}

TEST(SocsFlow, FingerprintChangesIffImagingKnobsChange) {
  FlowSpec base;
  const std::uint64_t fp = flow_fingerprint(base, "flat");
  EXPECT_EQ(flow_fingerprint(base, "flat"), fp);

  FlowSpec socs = base;
  socs.sim.imaging = litho::ImagingMode::kSocs;
  EXPECT_NE(flow_fingerprint(socs, "flat"), fp);

  FlowSpec eps = base;
  eps.sim.socs_epsilon = 1e-3;
  EXPECT_NE(flow_fingerprint(eps, "flat"), fp);
  EXPECT_NE(flow_fingerprint(eps, "flat"), flow_fingerprint(socs, "flat"));

  // Non-imaging, non-output-affecting knobs still leave it unchanged.
  FlowSpec jobs = base;
  jobs.jobs = 8;
  EXPECT_EQ(flow_fingerprint(jobs, "flat"), fp);
}

// The band-limited sums move intensities by ~1e-15 (calibrated
// thresholds and EPE statistics change in their last bits), so the
// imaging-engine revision is mixed into the fingerprint: a default spec
// no longer hashes to its pre-revision value (pinned from the builds
// before the band-limited grid), and stores and libraries written by
// those builds are refused instead of mixed with new solves. The pinned
// current values changed once more when library_path left the
// fingerprint (the revision-1 values that still mixed an empty path are
// the middle pair).
TEST(SocsFlow, FingerprintChangesWithImagingEngineRevision) {
  EXPECT_EQ(kImagingEngineRevision, 1);
  const FlowSpec base;
  EXPECT_NE(flow_fingerprint(base, "flat"), 0x74ce46152305fb70u);
  EXPECT_NE(flow_fingerprint(base, "cell"), 0x94a06599f816c461u);
  EXPECT_NE(flow_fingerprint(base, "flat"), 0x9bf7c13a66f31391u);
  EXPECT_NE(flow_fingerprint(base, "cell"), 0xd5aea2dca5531060u);
  EXPECT_EQ(flow_fingerprint(base, "flat"), 0x1cdbe09414a79f31u);
  EXPECT_EQ(flow_fingerprint(base, "cell"), 0x153e264732117a60u);
}

}  // namespace
}  // namespace opckit::opc
