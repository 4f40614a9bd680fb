/// Pixel-ILT engine tests: adjoint-vs-finite-difference gradient checks
/// across process corners, the band-limited cost and adjoint against a
/// full-frame reference, sigmoid resist-proxy properties, the descent's
/// stop reasons, legalizer idempotence + MRC cleanliness, and the
/// flow's jobs=1 vs jobs=8 byte-identity contract for ILT tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/flow.h"
#include "geometry/region.h"
#include "ilt/ilt.h"
#include "layout/generators.h"
#include "litho/fft.h"
#include "litho/raster.h"
#include "litho/resist.h"
#include "litho/simulator.h"
#include "litho/socs.h"
#include "mrc/mrc.h"
#include "trace/metrics.h"
#include "util/thread_pool.h"

namespace opckit::ilt {
namespace {

/// Deterministic LCG so the "random" masks are identical on every
/// platform (no <random> distribution differences).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() % (1u << 24)) /
           static_cast<double>(1u << 24);
  }

 private:
  std::uint64_t state_;
};

litho::SimSpec calibrated_sim() {
  litho::SimSpec sim;
  sim.optics.source.grid = 5;
  sim.guard_nm = 120;  // small frames keep the FD probes fast
  litho::calibrate_threshold(sim, 180, 360);
  return sim;
}

std::vector<geom::Polygon> two_bar_target() {
  const std::vector<geom::Rect> bars = {geom::Rect(80, 40, 176, 360),
                                        geom::Rect(248, 40, 344, 360)};
  return geom::Region::from_rects(bars).polygons();
}

// ---- sigmoid resist proxy ---------------------------------------------

TEST(IltSigmoid, CenterIsHalf) { EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5); }

TEST(IltSigmoid, StrictlyMonotonicAndBounded) {
  // Strict monotonicity holds until the double rounds to exactly 0 or 1
  // (|x| ~ 37); past that the function is still weakly monotone.
  double prev = sigmoid(-30.0);
  for (double x = -29.5; x <= 30.0; x += 0.5) {
    const double z = sigmoid(x);
    EXPECT_GT(z, prev) << "x=" << x;
    EXPECT_GT(z, 0.0);
    EXPECT_LT(z, 1.0);
    prev = z;
  }
}

TEST(IltSigmoid, ExtremeArgumentsDoNotOverflow) {
  EXPECT_NEAR(sigmoid(1e4), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1e4), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(sigmoid(1e4) + sigmoid(-1e4), 1.0);
}

// ---- adjoint gradient vs central finite differences -------------------

/// Probe a handful of pixels (window and context alike — the gradient
/// contract is the full unconstrained dC/dm) and compare the adjoint
/// against (C(m+h) - C(m-h)) / 2h.
void check_adjoint(const litho::SimSpec& sim, const IltSpec& spec,
                   std::uint64_t seed) {
  const geom::Rect window(0, 0, 400, 400);
  const PixelProblem problem(two_bar_target(), sim, window, spec);
  const std::size_t n = problem.size();
  ASSERT_GT(n, 0u);

  Lcg rng(seed);
  std::vector<double> m(n);
  for (double& v : m) v = 0.2 + 0.6 * rng.uniform();

  std::vector<double> grad;
  const double c0 = problem.cost_and_gradient(m, grad);
  ASSERT_EQ(grad.size(), n);
  EXPECT_NEAR(c0, problem.cost(m), 1e-9 * (1.0 + std::abs(c0)));

  const double h = 1e-4;
  for (int probe = 0; probe < 12; ++probe) {
    const std::size_t i = rng.next() % n;
    std::vector<double> p = m;
    p[i] = m[i] + h;
    const double up = problem.cost(p);
    p[i] = m[i] - h;
    const double dn = problem.cost(p);
    const double fd = (up - dn) / (2.0 * h);
    EXPECT_NEAR(grad[i], fd, 1e-6 + 2e-3 * std::abs(fd))
        << "pixel " << i << " seed " << seed;
  }
}

TEST(IltAdjoint, MatchesFiniteDifferenceBinaryMask) {
  check_adjoint(calibrated_sim(), IltSpec{}, 1);
}

TEST(IltAdjoint, MatchesFiniteDifferenceAttenuatedPsm) {
  litho::SimSpec sim;
  sim.optics.source.grid = 5;
  sim.guard_nm = 120;
  sim.mask.type = litho::MaskType::kAttenuatedPsm;
  litho::calibrate_threshold(sim, 180, 360);
  check_adjoint(sim, IltSpec{}, 2);
}

TEST(IltAdjoint, MatchesFiniteDifferenceSteepSigmoidCorner) {
  IltSpec spec;
  spec.sigmoid_steepness = 80.0;
  spec.edge_weight = 8.0;
  spec.edge_band_nm = 16.0;
  check_adjoint(calibrated_sim(), spec, 3);
}

// ---- band-limited cost and adjoint vs a full-frame reference ----------

struct FrameObjective {
  double cost = 0.0;
  std::vector<double> grad;
};

/// The pixel-ILT objective written from frame-size transforms alone:
/// every coherent field through a SparseInverseBatch on the frame, and
/// each kernel's adjoint term as a dense frame inverse of gI . conj(E_k).
FrameObjective full_frame_objective(const PixelProblem& problem,
                                    const litho::SimSpec& sim,
                                    const IltSpec& spec,
                                    const std::vector<double>& m) {
  using litho::Complex;
  const litho::Frame& frame = problem.frame();
  const std::size_t n = problem.size();
  const litho::Fft2d fft(frame.nx, frame.ny);
  const auto set = litho::KernelCache::instance().get(
      sim.optics, frame, 0.0, sim.mask, litho::SocsOptions{sim.socs_epsilon});
  const litho::SparseInverseBatch batch(fft, set->support);
  const double t_bg = sim.mask.background_amplitude();

  std::vector<double> trans(n);
  for (std::size_t i = 0; i < n; ++i) trans[i] = m[i] + (1.0 - m[i]) * t_bg;
  std::vector<Complex> spectrum;
  fft.forward_real(trans, spectrum);
  std::vector<std::vector<Complex>> fields(set->kernels.size());
  litho::Image intensity(frame, 0.0);
  for (std::size_t k = 0; k < fields.size(); ++k) {
    batch.inverse_field(spectrum.data(), set->kernels[k].value, fields[k]);
    for (std::size_t i = 0; i < n; ++i) {
      intensity.values()[i] += set->kernels[k].weight * std::norm(fields[k][i]);
    }
  }
  const litho::Image latent =
      litho::gaussian_blur(intensity, sim.resist.diffusion_nm);

  FrameObjective out;
  litho::Image g_latent(frame, 0.0);
  const double a = spec.sigmoid_steepness;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = problem.weight()[i];
    if (w == 0.0) continue;
    const double z = sigmoid(a * (latent.values()[i] - sim.resist.threshold));
    const double r = z - problem.initial()[i];
    out.cost += w * r * r;
    g_latent.values()[i] = 2.0 * w * r * a * z * (1.0 - z);
  }
  const litho::Image g_int =
      litho::gaussian_blur(g_latent, sim.resist.diffusion_nm);

  std::vector<Complex> q(set->support.size(), Complex{0.0, 0.0});
  std::vector<Complex> work(n);
  for (std::size_t k = 0; k < fields.size(); ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      work[i] = g_int.values()[i] * std::conj(fields[k][i]);
    }
    fft.inverse(work);
    for (std::size_t j = 0; j < set->support.size(); ++j) {
      q[j] += set->kernels[k].weight * set->kernels[k].value[j] *
              work[set->support[j]];
    }
  }
  std::fill(work.begin(), work.end(), Complex{0.0, 0.0});
  for (std::size_t j = 0; j < set->support.size(); ++j) {
    work[set->support[j]] = q[j];
  }
  fft.forward(work);
  out.grad.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.grad[i] = 2.0 * work[i].real() * (1.0 - t_bg);
  }
  return out;
}

struct ParityCase {
  const char* name;
  bool dipole;        ///< off-axis x dipole with coma, else annular
  geom::Rect window;  ///< sets the frame with guard_nm
  geom::Coord guard_nm;
  double pixel_nm;
  std::size_t nx, ny;  ///< expected frame
  std::size_t mx, my;  ///< expected grid (== frame: not reduced)
};

void PrintTo(const ParityCase& pc, std::ostream* os) { *os << pc.name; }

class IltBandParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(IltBandParity, CostAndGradientMatchFullFrame) {
  const ParityCase& pc = GetParam();
  litho::SimSpec sim;
  sim.optics.source.grid = 5;
  if (pc.dipole) {
    sim.optics.source.shape = litho::SourceShape::kDipoleX;
    sim.optics.aberrations.coma_x_nm = 6.0;
  }
  sim.guard_nm = pc.guard_nm;
  sim.pixel_nm = pc.pixel_nm;
  sim.resist.threshold = 0.3;
  const IltSpec spec;
  const PixelProblem problem(two_bar_target(), sim, pc.window, spec);
  const litho::Frame& frame = problem.frame();
  ASSERT_EQ(frame.nx, pc.nx);
  ASSERT_EQ(frame.ny, pc.ny);
  const auto set = litho::KernelCache::instance().get(
      sim.optics, frame, 0.0, sim.mask, litho::SocsOptions{sim.socs_epsilon});
  ASSERT_EQ(set->grid->grid().nx(), pc.mx);
  ASSERT_EQ(set->grid->grid().ny(), pc.my);

  Lcg rng(17);
  std::vector<double> m(problem.size());
  for (double& v : m) v = 0.2 + 0.6 * rng.uniform();

  std::vector<double> grad;
  const double c = problem.cost_and_gradient(m, grad);
  const FrameObjective ref = full_frame_objective(problem, sim, spec, m);
  ASSERT_GT(ref.cost, 0.0);
  EXPECT_NEAR(c, ref.cost, 1e-12 * ref.cost);
  double gmax = 0.0;
  for (double g : ref.grad) gmax = std::max(gmax, std::abs(g));
  ASSERT_GT(gmax, 0.0);
  double worst = 0.0;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    worst = std::max(worst, std::abs(grad[i] - ref.grad[i]));
  }
  EXPECT_LE(worst, 1e-12 * gmax) << "max |grad| " << gmax;

  // cost(), and evaluate() + gradient(), are the same numbers bit for bit.
  EXPECT_EQ(problem.cost(m), c);
  PixelProblem::Forward fwd;
  EXPECT_EQ(problem.evaluate(m, fwd), c);
  std::vector<double> split;
  problem.gradient(fwd, split);
  EXPECT_EQ(split, grad);
}

INSTANTIATE_TEST_SUITE_P(
    Frames, IltBandParity,
    ::testing::Values(
        ParityCase{"Annular256", false, geom::Rect(0, 0, 400, 400), 800, 8.0,
                   256, 256, 64, 64},
        ParityCase{"Dipole256", true, geom::Rect(0, 0, 400, 400), 800, 8.0,
                   256, 256, 64, 32},
        ParityCase{"Annular256x128", false, geom::Rect(0, 0, 1200, 200), 400,
                   8.0, 256, 128, 64, 32},
        ParityCase{"Dipole256x128", true, geom::Rect(0, 0, 1200, 200), 400,
                   8.0, 256, 128, 64, 16},
        ParityCase{"AnnularUnreduced", false, geom::Rect(0, 0, 400, 400), 120,
                   32.0, 32, 32, 32, 32},
        ParityCase{"DipoleUnreduced", true, geom::Rect(0, 0, 400, 400), 120,
                   80.0, 8, 8, 8, 8}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.name);
    });

TEST(IltRun, BitIdenticalOnMainThreadAndInPoolWorker) {
  // From the main thread intensity_sum fans the kernels out over the
  // global pool; inside a pool worker it runs them inline. The reduction
  // order is the same, so the descent must be too.
  const litho::SimSpec sim = calibrated_sim();
  IltSpec spec;
  spec.max_iterations = 6;
  const geom::Rect window(0, 0, 400, 400);
  const IltResult main = run_pixel_ilt(two_bar_target(), sim, window, spec);

  util::ThreadPool pool(1);
  IltResult worker;
  std::promise<void> done;
  pool.submit([&] {
    worker = run_pixel_ilt(two_bar_target(), sim, window, spec);
    done.set_value();
  });
  done.get_future().get();

  EXPECT_GT(main.iterations, 0);
  EXPECT_EQ(worker.iterations, main.iterations);
  EXPECT_EQ(worker.stop, main.stop);
  EXPECT_EQ(worker.initial_cost, main.initial_cost);
  EXPECT_EQ(worker.final_cost, main.final_cost);
  EXPECT_EQ(worker.mask.values(), main.mask.values());
  EXPECT_EQ(worker.corrected, main.corrected);
}

TEST(IltRun, ReusedForwardPassMatchesSeparateCalls) {
  // The descent re-simulates nothing: the accepted trial's forward pass
  // feeds the next gradient. A descent written with separate cost() and
  // cost_and_gradient() calls must land on the same mask bit for bit.
  const litho::SimSpec sim = calibrated_sim();
  IltSpec spec;
  spec.max_iterations = 8;
  const geom::Rect window(0, 0, 400, 400);
  const IltResult res = run_pixel_ilt(two_bar_target(), sim, window, spec);

  const PixelProblem problem(two_bar_target(), sim, window, spec);
  std::vector<double> m = problem.initial(), grad, trial(m.size());
  double cost = problem.cost_and_gradient(m, grad);
  double step = spec.step;
  int steps = 0;
  for (int it = 0; it < spec.max_iterations; ++it) {
    double gmax = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (problem.free_mask()[i]) gmax = std::max(gmax, std::abs(grad[i]));
    }
    ASSERT_GT(gmax, 0.0);
    double trial_cost = cost;
    for (int bt = 0; bt < 5 && trial_cost >= cost; ++bt) {
      for (std::size_t i = 0; i < m.size(); ++i) {
        trial[i] = problem.free_mask()[i]
                       ? std::clamp(m[i] - step / gmax * grad[i], 0.0, 1.0)
                       : m[i];
      }
      trial_cost = problem.cost(trial);
      if (trial_cost >= cost) step *= 0.5;
    }
    ASSERT_LT(trial_cost, cost) << "no descent at step " << it;
    m.swap(trial);
    ++steps;
    cost = problem.cost_and_gradient(m, grad);
    ASSERT_EQ(cost, trial_cost);
  }
  ASSERT_EQ(res.stop, IltStop::kIterationCap);
  EXPECT_EQ(res.iterations, steps);
  EXPECT_EQ(res.final_cost, cost);
  EXPECT_EQ(res.mask.values(), m);
}

// ---- stop reasons -----------------------------------------------------

/// Run one tile and return the result plus the registry deltas of the
/// step counter and the counter of the reason it reports.
struct StopRun {
  IltResult result;
  std::uint64_t steps = 0;
  std::uint64_t stop_count = 0;
  std::uint64_t other_stops = 0;
};

StopRun run_counted(const std::vector<geom::Polygon>& targets,
                    const IltSpec& spec) {
  namespace tm = trace::metric;
  // In IltStop order.
  const char* const stops[] = {tm::kIltStopConverged, tm::kIltStopNoDescent,
                               tm::kIltStopZeroGradient,
                               tm::kIltStopIterationCap};
  auto& reg = trace::metrics();
  std::vector<std::uint64_t> before;
  for (const char* s : stops) before.push_back(reg.counter(s).value());
  const std::uint64_t steps0 = reg.counter(tm::kIltSteps).value();

  StopRun out;
  out.result = run_pixel_ilt(targets, calibrated_sim(),
                             geom::Rect(0, 0, 400, 400), spec);
  out.steps = reg.counter(tm::kIltSteps).value() - steps0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t d = reg.counter(stops[i]).value() - before[i];
    if (static_cast<int>(i) == static_cast<int>(out.result.stop)) {
      out.stop_count = d;
    } else {
      out.other_stops += d;
    }
  }
  return out;
}

TEST(IltStopReason, IterationCap) {
  IltSpec spec;
  spec.max_iterations = 2;
  spec.convergence_tol = 0.0;
  const StopRun r = run_counted(two_bar_target(), spec);
  EXPECT_EQ(r.result.stop, IltStop::kIterationCap);
  EXPECT_FALSE(r.result.converged());
  EXPECT_EQ(r.result.iterations, 2);
  EXPECT_EQ(r.steps, 2u);
  EXPECT_EQ(r.stop_count, 1u);
  EXPECT_EQ(r.other_stops, 0u);
}

TEST(IltStopReason, NoDescent) {
  // A step so large that every halving still drives each free pixel to
  // 0 or 1 by the gradient's sign: the bang-bang mask floods the window
  // and never lowers the cost.
  IltSpec spec;
  spec.step = 1e6;
  const StopRun r = run_counted(two_bar_target(), spec);
  EXPECT_EQ(r.result.stop, IltStop::kNoDescent);
  EXPECT_FALSE(r.result.converged());
  EXPECT_EQ(r.result.iterations, 0);
  EXPECT_EQ(r.result.final_cost, r.result.initial_cost);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.stop_count, 1u);
  EXPECT_EQ(r.other_stops, 0u);
}

TEST(IltStopReason, ZeroGradient) {
  // Nothing drawn on a binary mask: every field is exactly zero, so is
  // every adjoint term.
  const StopRun r = run_counted({}, IltSpec{});
  EXPECT_EQ(r.result.stop, IltStop::kZeroGradient);
  EXPECT_TRUE(r.result.converged());
  EXPECT_EQ(r.result.iterations, 0);
  EXPECT_EQ(r.stop_count, 1u);
  EXPECT_EQ(r.other_stops, 0u);
}

TEST(IltStopReason, ConvergedOnStallRun) {
  // Every step improves by less than half the cost: three stalled steps
  // in a row end the descent well before the cap.
  IltSpec spec;
  spec.convergence_tol = 0.5;
  const StopRun r = run_counted(two_bar_target(), spec);
  EXPECT_EQ(r.result.stop, IltStop::kConverged);
  EXPECT_TRUE(r.result.converged());
  EXPECT_EQ(r.result.iterations, 3);
  EXPECT_EQ(r.steps, 3u);
  EXPECT_EQ(r.stop_count, 1u);
  EXPECT_EQ(r.other_stops, 0u);
}

// ---- legalization -----------------------------------------------------

litho::Frame test_frame() {
  litho::Frame f;
  f.origin = {0, 0};
  f.pixel_nm = 8.0;
  f.nx = 128;
  f.ny = 128;
  return f;
}

/// A mask that trips every repair rule: a 40 nm gap (below min_space),
/// a 32 nm sliver (below min_width), two facing convex corners 32 nm
/// apart (below min_corner), and a 40x40 islet (below min_area).
litho::Image dirty_mask(const litho::Frame& f) {
  const std::vector<geom::Rect> rects = {
      geom::Rect(96, 96, 296, 296),    // body A
      geom::Rect(96, 336, 296, 536),   // body B: 40 nm gap to A
      geom::Rect(296, 160, 328, 240),  // 32 nm sliver off body A
      geom::Rect(328, 328, 496, 496),  // corner faces body A's NE corner
      geom::Rect(600, 600, 640, 640),  // islet below min_area
      geom::Rect(96, 640, 496, 800),   // clean anchor
  };
  return litho::rasterize(geom::Region::from_rects(rects), f);
}

TEST(IltLegalize, RepairedMaskPassesMaskDeck180) {
  const litho::Frame f = test_frame();
  const IltSpec spec;
  const geom::Rect window = f.extent();
  const geom::Region legal = legalize_mask(dirty_mask(f), window, spec);
  ASSERT_FALSE(legal.polygons().empty());

  const mrc::MrcReport report = mrc::check_mask(legal, mrc::mask_deck_180());
  EXPECT_TRUE(report.clean()) << report.violations.size() << " violations, "
                              << "first rule: "
                              << (report.violations.empty()
                                      ? ""
                                      : report.violations.front().rule);
}

TEST(IltLegalize, IdempotentThroughRasterization) {
  const litho::Frame f = test_frame();
  const IltSpec spec;
  const geom::Rect window = f.extent();
  const geom::Region once = legalize_mask(dirty_mask(f), window, spec);
  const geom::Region twice =
      legalize_mask(litho::rasterize(once, f), window, spec);
  EXPECT_EQ(once, twice);
}

TEST(IltLegalize, DropsSubMinimumAreaIslets) {
  const litho::Frame f = test_frame();
  const IltSpec spec;
  const geom::Region legal =
      legalize_mask(dirty_mask(f), f.extent(), spec);
  // The 40x40 islet at (600,600) is isolated (>= min_space from all
  // bodies) and below min_area_nm2, so no output may overlap it.
  const std::vector<geom::Rect> islet = {geom::Rect(600, 600, 640, 640)};
  EXPECT_TRUE(legal.intersected(geom::Region::from_rects(islet))
                  .polygons()
                  .empty());
}

// ---- full tile runs ---------------------------------------------------

TEST(IltRun, ImprovesCostAndStaysDeckClean) {
  const litho::SimSpec sim = calibrated_sim();
  IltSpec spec;
  spec.max_iterations = 10;
  const geom::Rect window(0, 0, 400, 400);
  const IltResult res = run_pixel_ilt(two_bar_target(), sim, window, spec);

  EXPECT_GT(res.iterations, 0);
  EXPECT_LE(res.final_cost, res.initial_cost);
  ASSERT_FALSE(res.corrected.empty());
  for (const auto& p : res.corrected) {
    EXPECT_TRUE(window.contains(p.bbox()));
  }
  const mrc::MrcReport report =
      mrc::check_polygons(res.corrected, mrc::mask_deck_180());
  EXPECT_TRUE(report.clean());
}

TEST(IltRun, ContextPolygonsPassThroughUnchanged) {
  const litho::SimSpec sim = calibrated_sim();
  IltSpec spec;
  spec.max_iterations = 4;
  const geom::Rect window(0, 0, 400, 400);

  // One polygon pokes outside the window: locked context.
  std::vector<geom::Polygon> targets = two_bar_target();
  const std::vector<geom::Rect> ctx_rects = {geom::Rect(-200, 40, -40, 360)};
  const geom::Region ctx = geom::Region::from_rects(ctx_rects);
  for (const auto& p : ctx.polygons()) targets.push_back(p);

  const IltResult res = run_pixel_ilt(targets, sim, window, spec);
  int context_seen = 0;
  for (const auto& p : res.corrected) {
    if (!window.contains(p.bbox())) {
      ++context_seen;
      EXPECT_EQ(p, ctx.polygons().front().normalized());
    }
  }
  EXPECT_EQ(context_seen, 1);
}

// ---- flow integration: determinism + escalation accounting ------------

opc::FlowSpec ilt_flow() {
  opc::FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  litho::calibrate_threshold(spec.sim, 180, 360);
  spec.opc.max_iterations = 3;
  spec.engine = opc::CorrectionEngine::kIlt;
  spec.ilt.max_iterations = 5;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

layout::Library small_chip(int cols, int rows) {
  layout::Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, {1400, 1800});
  return lib;
}

std::vector<geom::Polygon> output_polys(const layout::Library& lib,
                                        const std::string& cell,
                                        const opc::FlowSpec& spec) {
  const auto shapes = lib.at(cell).shapes(spec.output_layer);
  return {shapes.begin(), shapes.end()};
}

TEST(IltFlow, FlatOutputIdenticalAcrossJobCounts) {
  opc::FlowSpec spec = ilt_flow();
  spec.cache = false;

  spec.jobs = 1;
  layout::Library serial = small_chip(2, 1);
  const opc::FlowStats s1 = opc::run_flat_opc(serial, "top", spec);
  const auto ref = output_polys(serial, "top", spec);
  ASSERT_FALSE(ref.empty());
  EXPECT_GT(s1.ilt_tiles, 0u);
  EXPECT_EQ(s1.ilt_escalated, 0u);  // kIlt runs every tile directly
  EXPECT_GT(s1.ilt_iterations, 0u);

  for (int jobs : {2, 8}) {
    spec.jobs = jobs;
    layout::Library lib = small_chip(2, 1);
    const opc::FlowStats s = opc::run_flat_opc(lib, "top", spec);
    EXPECT_EQ(output_polys(lib, "top", spec), ref) << "jobs=" << jobs;
    EXPECT_EQ(s.ilt_tiles, s1.ilt_tiles) << "jobs=" << jobs;
    EXPECT_EQ(s.simulations, s1.simulations) << "jobs=" << jobs;
  }
}

TEST(IltFlow, CellEscalateOutputIdenticalAcrossJobCounts) {
  // The cell flow runs escalation on the same terms as the flat flow:
  // escalated tiles solve on pool workers and their kept answer passes
  // the serial merge, so the written cells are identical at any jobs.
  // Two hard cells inside 848 nm boundaries (a tip-to-tip pair and a 2x2
  // contact array): tight windows where ILT can beat model OPC.
  auto build = [] {
    layout::Library lib("chip");
    geom::Coord x = 0;
    auto add = [&](const std::string& name, std::vector<geom::Rect> rects) {
      layout::Cell& cell = lib.cell(name);
      for (const geom::Rect& r : rects) {
        cell.add_rect(layout::layers::kPoly, r);
      }
      cell.add_rect(layout::Layer{235, 0}, geom::Rect(-424, -424, 424, 424));
      layout::CellRef ref;
      ref.child = name;
      ref.transform = geom::Transform(geom::Point{x, 0});
      x += 1200;
      lib.cell("top").add_ref(std::move(ref));
    };
    add("tip", {geom::Rect(-90, -400, 90, -100), geom::Rect(-90, 100, 90, 400)});
    add("ctc", {geom::Rect(-330, -330, -110, -110),
                geom::Rect(110, -330, 330, -110),
                geom::Rect(-330, 110, -110, 330),
                geom::Rect(110, 110, 330, 330)});
    return lib;
  };
  opc::FlowSpec spec = ilt_flow();
  spec.sim.guard_nm = 600;
  spec.engine = opc::CorrectionEngine::kEscalate;
  spec.opc.epe_tolerance_nm = 8.0;
  spec.ilt_escalation_epe_nm = 8.0;

  spec.jobs = 1;
  layout::Library serial = build();
  const opc::FlowStats s1 = opc::run_cell_opc(serial, "top", spec);
  EXPECT_EQ(s1.ilt_escalated, 2u);
  EXPECT_GT(s1.ilt_tiles, 0u);  // at least one cell keeps its ILT mask
  const auto ref_tip = output_polys(serial, "tip", spec);
  const auto ref_ctc = output_polys(serial, "ctc", spec);
  ASSERT_FALSE(ref_tip.empty());
  ASSERT_FALSE(ref_ctc.empty());

  spec.jobs = 8;
  layout::Library lib = build();
  const opc::FlowStats s8 = opc::run_cell_opc(lib, "top", spec);
  EXPECT_EQ(output_polys(lib, "tip", spec), ref_tip);
  EXPECT_EQ(output_polys(lib, "ctc", spec), ref_ctc);
  EXPECT_EQ(s8.ilt_tiles, s1.ilt_tiles);
  EXPECT_EQ(s8.ilt_escalated, s1.ilt_escalated);
  EXPECT_EQ(s8.tile_simulations, s1.tile_simulations);
}

TEST(IltFlow, EscalationThresholdGatesIlt) {
  layout::Library relaxed_lib = small_chip(1, 1);
  opc::FlowSpec spec = ilt_flow();
  spec.cache = false;
  spec.engine = opc::CorrectionEngine::kEscalate;

  // An unreachable residual floor: model OPC gets enough iterations to
  // converge, nothing escalates, and the stats stay pure model.
  spec.opc.max_iterations = 30;
  spec.ilt_escalation_epe_nm = 1e6;
  const opc::FlowStats relaxed = opc::run_flat_opc(relaxed_lib, "top", spec);
  EXPECT_EQ(relaxed.ilt_tiles, 0u);
  EXPECT_EQ(relaxed.ilt_escalated, 0u);

  // A zero floor: any residual EPE escalates every tile (a capped,
  // unconverged model solve escalates too — kEscalate's other trigger).
  // ilt_escalated counts attempts; ilt_tiles counts tiles whose OUTPUT
  // is ILT, which can be fewer (the never-regress rule keeps the model
  // answer when the measured ILT EPE is worse).
  layout::Library strict_lib = small_chip(1, 1);
  spec.opc.max_iterations = 3;
  spec.ilt_escalation_epe_nm = 0.0;
  const opc::FlowStats strict = opc::run_flat_opc(strict_lib, "top", spec);
  EXPECT_GT(strict.ilt_escalated, 0u);
  EXPECT_LE(strict.ilt_tiles, strict.ilt_escalated);
}

}  // namespace
}  // namespace opckit::ilt
