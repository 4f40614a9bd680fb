/// Property suite for the planned FFT engine: bit-exact parity of the
/// planned complex path against the historic recurrence kernel, r2c/c2r
/// round trips and Hermitian invariants over random sizes and seeds,
/// SparseInverseBatch parity against the dense inverse, the
/// band-limited grid (dims, remap, parity with the full-frame sum), and
/// PlanCache reuse accounting under concurrent requests (the TSan
/// target for the jobs=8 flow's shared-plan access pattern).
#include <algorithm>
#include <cmath>
#include <numbers>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "litho/fft.h"
#include "litho/image.h"
#include "litho/resist.h"
#include "trace/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace opckit::litho {
namespace {

/// Verbatim copy of the pre-plan scalar kernel (serial w *= wlen
/// recurrence). The planned complex path must reproduce it bit for bit
/// — that is the guarantee that lets the imaging engines switch to
/// plans without moving flow output.
void legacy_fft(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                       static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& v : data) v *= inv;
  }
}

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return v;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

TEST(FftPlan, ComplexParityWithLegacyIsBitExact) {
  for (std::size_t n : {1u, 2u, 4u, 8u, 32u, 128u, 512u}) {
    for (std::uint64_t seed : {3u, 17u, 99u}) {
      const FftPlan plan(n, FftKind::kComplex);
      for (const bool inverse : {false, true}) {
        std::vector<Complex> planned = random_complex(n, seed);
        std::vector<Complex> legacy = planned;
        plan.transform(planned.data(), inverse ? FftDirection::kInverse
                                               : FftDirection::kForward);
        legacy_fft(legacy, inverse);
        if (inverse) {
          // FftPlan primitives are unnormalized; apply the same final
          // scaling the legacy kernel folds in.
          const double inv = 1.0 / static_cast<double>(n);
          for (auto& c : planned) c *= inv;
        }
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(planned[i].real(), legacy[i].real())
              << "n=" << n << " seed=" << seed << " bin " << i;
          EXPECT_EQ(planned[i].imag(), legacy[i].imag())
              << "n=" << n << " seed=" << seed << " bin " << i;
        }
      }
    }
  }
}

TEST(FftPlan, RealForwardMatchesComplexForward) {
  for (std::size_t n : {1u, 2u, 4u, 16u, 64u, 256u}) {
    for (std::uint64_t seed : {7u, 21u}) {
      const std::vector<double> x = random_real(n, seed);
      std::vector<Complex> ref(n);
      for (std::size_t i = 0; i < n; ++i) ref[i] = x[i];
      const FftPlan cplan(n, FftKind::kComplex);
      cplan.transform(ref.data(), FftDirection::kForward);

      const FftPlan rplan(n, FftKind::kReal);
      std::vector<Complex> half(n / 2 + 1);
      rplan.forward_real(x.data(), half.data());
      for (std::size_t k = 0; k <= n / 2; ++k) {
        EXPECT_NEAR(half[k].real(), ref[k].real(), 1e-12)
            << "n=" << n << " seed=" << seed << " bin " << k;
        EXPECT_NEAR(half[k].imag(), ref[k].imag(), 1e-12)
            << "n=" << n << " seed=" << seed << " bin " << k;
      }
    }
  }
}

TEST(FftPlan, RealRoundTripRecoversInput) {
  for (std::size_t n : {1u, 2u, 8u, 64u, 1024u}) {
    for (std::uint64_t seed : {1u, 13u, 42u}) {
      const std::vector<double> x = random_real(n, seed);
      const FftPlan plan(n, FftKind::kReal);
      std::vector<Complex> half(n / 2 + 1);
      std::vector<double> back(n);
      plan.forward_real(x.data(), half.data());
      plan.inverse_real(half.data(), back.data());
      const double inv = 1.0 / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(back[i] * inv, x[i], 1e-12)
            << "n=" << n << " seed=" << seed << " sample " << i;
      }
    }
  }
}

TEST(FftPlan, RealPathRequiresRealPlan) {
  const FftPlan plan(8, FftKind::kComplex);
  std::vector<double> x(8, 1.0);
  std::vector<Complex> half(5);
  std::vector<double> back(8);
  EXPECT_THROW(plan.forward_real(x.data(), half.data()), util::CheckError);
  EXPECT_THROW(plan.inverse_real(half.data(), back.data()), util::CheckError);
}

TEST(FftPlan, RejectsNonPow2) {
  EXPECT_THROW(FftPlan(0, FftKind::kComplex), util::CheckError);
  EXPECT_THROW(FftPlan(12, FftKind::kComplex), util::CheckError);
  EXPECT_THROW(FftPlan(12, FftKind::kReal), util::CheckError);
}

TEST(FftPlan, DegenerateSizeOne) {
  const FftPlan plan(1, FftKind::kReal);
  Complex c{3.5, -1.0};
  plan.transform(&c, FftDirection::kForward);
  EXPECT_EQ(c, (Complex{3.5, -1.0}));  // length-1 transform is identity
  const double x = 2.25;
  Complex spec;
  plan.forward_real(&x, &spec);
  EXPECT_EQ(spec, (Complex{2.25, 0.0}));
  double back = 0.0;
  plan.inverse_real(&spec, &back);
  EXPECT_EQ(back, 2.25);
}

TEST(FftHelpers, NextPow2OverflowIsCheckedNotInfinite) {
  constexpr std::size_t kTop = std::size_t{1} << 63;
  EXPECT_EQ(next_pow2(kTop), kTop);
  EXPECT_EQ(next_pow2(kTop - 1), kTop);
  // The old loop shifted its accumulator into 0 and spun forever here.
  EXPECT_THROW(next_pow2(kTop + 1), util::CheckError);
}

TEST(FftHelpers, FreqRejectsOutOfRangeBin) {
  EXPECT_THROW(fft_freq(0, 0), util::CheckError);
  EXPECT_THROW(fft_freq(8, 8), util::CheckError);
  EXPECT_DOUBLE_EQ(fft_freq(0, 1), 0.0);
}

TEST(Fft2dPlan, ComplexRoundTripAndLegacyParity) {
  const std::size_t nx = 32, ny = 16;
  const Fft2d plan(nx, ny);
  std::vector<Complex> planned = random_complex(nx * ny, 77);
  std::vector<Complex> ref = planned;
  plan.forward(planned);
  // Legacy 2-D: rows then strided columns, same kernels.
  for (std::size_t y = 0; y < ny; ++y) {
    std::vector<Complex> row(ref.begin() + static_cast<std::ptrdiff_t>(y * nx),
                             ref.begin() +
                                 static_cast<std::ptrdiff_t>((y + 1) * nx));
    legacy_fft(row, false);
    std::copy(row.begin(), row.end(),
              ref.begin() + static_cast<std::ptrdiff_t>(y * nx));
  }
  for (std::size_t x = 0; x < nx; ++x) {
    std::vector<Complex> col(ny);
    for (std::size_t y = 0; y < ny; ++y) col[y] = ref[y * nx + x];
    legacy_fft(col, false);
    for (std::size_t y = 0; y < ny; ++y) ref[y * nx + x] = col[y];
  }
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_EQ(planned[i], ref[i]) << "bin " << i;
  }
  plan.inverse(planned);
  const std::vector<Complex> orig = random_complex(nx * ny, 77);
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_NEAR(planned[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(planned[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft2dPlan, RealForwardIsHermitianAndMatchesComplex) {
  for (const auto& [nx, ny] :
       {std::pair<std::size_t, std::size_t>{16, 16}, {32, 8}, {4, 64}}) {
    const std::vector<double> img = random_real(nx * ny, 31);
    const Fft2d plan(nx, ny);
    std::vector<Complex> spec;
    plan.forward_real(img, spec);

    std::vector<Complex> ref(nx * ny);
    for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = img[i];
    plan.forward(ref);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(spec[i].real(), ref[i].real(), 1e-11) << "bin " << i;
      EXPECT_NEAR(spec[i].imag(), ref[i].imag(), 1e-11) << "bin " << i;
    }
    // Hermitian invariant over the FULL layout, mirror bins included:
    // F[-kx, -ky] = conj(F[kx, ky]) with wrap-around indexing.
    for (std::size_t ky = 0; ky < ny; ++ky) {
      for (std::size_t kx = 0; kx < nx; ++kx) {
        const Complex f = spec[ky * nx + kx];
        const Complex m =
            spec[((ny - ky) % ny) * nx + (nx - kx) % nx];
        EXPECT_NEAR(m.real(), f.real(), 1e-11);
        EXPECT_NEAR(m.imag(), -f.imag(), 1e-11);
      }
    }
  }
}

TEST(Fft2dPlan, RealRoundTripIgnoresStaleMirrorHalf) {
  const std::size_t nx = 32, ny = 32;
  const std::vector<double> img = random_real(nx * ny, 55);
  const Fft2d plan(nx, ny);
  std::vector<Complex> spec;
  plan.forward_real(img, spec);
  // inverse_real documents that only the kx <= nx/2 half is read:
  // clobber the mirror half to prove it.
  for (std::size_t ky = 0; ky < ny; ++ky) {
    for (std::size_t kx = nx / 2 + 1; kx < nx; ++kx) {
      spec[ky * nx + kx] = Complex{1e9, -1e9};
    }
  }
  std::vector<double> back;
  plan.inverse_real(spec, back);
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(back[i], img[i], 1e-12) << "sample " << i;
  }
}

TEST(SparseBatch, MatchesDenseInverseBitExact) {
  const std::size_t nx = 32, ny = 32;
  const Fft2d plan(nx, ny);
  const std::vector<Complex> spectrum = random_complex(nx * ny, 123);

  // A pupil-like support: a disk of bins around DC (wrap-around), the
  // exact shape the imaging engines bind.
  std::vector<std::uint32_t> support;
  for (std::size_t ky = 0; ky < ny; ++ky) {
    const double fy = fft_freq(ky, ny);
    for (std::size_t kx = 0; kx < nx; ++kx) {
      const double fx = fft_freq(kx, nx);
      if (fx * fx + fy * fy <= 0.1) {
        support.push_back(static_cast<std::uint32_t>(ky * nx + kx));
      }
    }
  }
  ASSERT_FALSE(support.empty());
  util::Rng rng(9);
  std::vector<Complex> factors(support.size());
  for (auto& f : factors) f = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

  const SparseInverseBatch batch(plan, support);
  EXPECT_EQ(batch.support_rows() + batch.rows_pruned(), ny);
  EXPECT_GT(batch.rows_pruned(), 0u);  // the disk must not touch all rows
  std::vector<double> pruned;
  batch.inverse_mag2(spectrum.data(), factors, pruned);

  // Dense reference: scatter into a full field, legacy normalized
  // inverse, then |.|^2 — the pre-plan engine's exact sequence.
  std::vector<Complex> field(nx * ny, Complex{0.0, 0.0});
  for (std::size_t j = 0; j < support.size(); ++j) {
    field[support[j]] = spectrum[support[j]] * factors[j];
  }
  fft_2d(field, nx, ny, /*inverse=*/true);
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_EQ(pruned[i], std::norm(field[i])) << "pixel " << i;
  }
}

TEST(SparseBatch, ValidatesSupportIndices) {
  const Fft2d plan(8, 8);
  const std::vector<std::uint32_t> out_of_range = {3, 64};
  EXPECT_THROW(SparseInverseBatch(plan, out_of_range), util::CheckError);
  const std::vector<std::uint32_t> not_ascending = {5, 5};
  EXPECT_THROW(SparseInverseBatch(plan, not_ascending), util::CheckError);
  const std::vector<std::uint32_t> descending = {9, 2};
  EXPECT_THROW(SparseInverseBatch(plan, descending), util::CheckError);
}

TEST(SparseBatch, InverseFieldMagnitudeMatchesInverseMag2) {
  // |inverse_field|² must be bit-identical to inverse_mag2: the ILT
  // adjoint consumes the complex fields, the imaging loop the fused
  // magnitudes, and both must describe the same image.
  const std::size_t nx = 32, ny = 16;
  const Fft2d plan(nx, ny);
  std::vector<std::uint32_t> support;
  for (std::uint32_t i = 0; i < nx * ny; i += 7) support.push_back(i);
  const SparseInverseBatch batch(plan, support);
  const auto spectrum = random_complex(nx * ny, 77);
  const auto factors = random_complex(support.size(), 78);

  std::vector<double> mag2;
  batch.inverse_mag2(spectrum.data(), factors, mag2);
  std::vector<Complex> field;
  batch.inverse_field(spectrum.data(), factors, field);
  ASSERT_EQ(field.size(), mag2.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_EQ(std::norm(field[i]), mag2[i]) << "pixel " << i;
  }

  // And the field itself matches the dense inverse of the masked
  // spectrum.
  std::vector<Complex> dense(nx * ny, Complex{0.0, 0.0});
  for (std::size_t j = 0; j < support.size(); ++j) {
    dense[support[j]] = spectrum[support[j]] * factors[j];
  }
  fft_2d(dense, nx, ny, /*inverse=*/true);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(field[i].real(), dense[i].real()) << "pixel " << i;
    EXPECT_EQ(field[i].imag(), dense[i].imag()) << "pixel " << i;
  }
}

/// Ascending flat indices of the bins within \p radius bins of DC —
/// a pupil-like support, wrap-around indexing.
std::vector<std::uint32_t> disk_support(std::size_t nx, std::size_t ny,
                                        double radius) {
  std::vector<std::uint32_t> support;
  for (std::size_t ky = 0; ky < ny; ++ky) {
    const double by = fft_freq(ky, ny) * static_cast<double>(ny);
    for (std::size_t kx = 0; kx < nx; ++kx) {
      const double bx = fft_freq(kx, nx) * static_cast<double>(nx);
      if (bx * bx + by * by <= radius * radius) {
        support.push_back(static_cast<std::uint32_t>(ky * nx + kx));
      }
    }
  }
  return support;
}

/// A weighted coherent sum over \p members batches, each member a
/// subset of \p support (every second member drops every third bin)
/// with random factors; the spectrum is scaled so intensities are O(1).
struct CoherentSum {
  std::vector<Complex> spectrum;
  std::vector<std::vector<std::uint32_t>> supports;
  std::vector<std::vector<Complex>> factors;
  std::vector<double> weights;

  CoherentSum(std::size_t nx, std::size_t ny,
              const std::vector<std::uint32_t>& support, std::size_t members,
              std::uint64_t seed)
      : spectrum(random_complex(nx * ny, seed)) {
    const double gain = static_cast<double>(nx * ny) /
                        std::sqrt(static_cast<double>(support.size()));
    for (auto& v : spectrum) v *= gain;
    util::Rng rng(seed + 1);
    for (std::size_t u = 0; u < members; ++u) {
      std::vector<std::uint32_t> sup;
      for (std::size_t j = 0; j < support.size(); ++j) {
        if (u % 2 == 1 && j % 3 == 0) continue;
        sup.push_back(support[j]);
      }
      factors.push_back(random_complex(sup.size(), seed + 10 + u));
      supports.push_back(std::move(sup));
      weights.push_back(rng.uniform(0.1, 1.0));
    }
  }

  /// The full-frame sum: every member's batch on the frame itself.
  std::vector<double> full_frame(const Fft2d& frame) const {
    std::vector<double> out(frame.nx() * frame.ny(), 0.0);
    detail::weighted_intensity_sum(
        supports.size(), out.size(),
        [&](std::size_t u, std::vector<double>& img) {
          SparseInverseBatch(frame, supports[u])
              .inverse_mag2(spectrum.data(), factors[u], img);
        },
        [&](std::size_t u) { return weights[u]; }, out);
    return out;
  }

  /// The same sum through the band-limited grid of \p support.
  std::vector<double> band_limited(const BandLimitedGrid& grid) const {
    std::vector<double> out;
    grid.intensity_sum(
        spectrum.data(), supports.size(),
        [&](std::size_t u, const Complex* grid_spectrum,
            std::vector<double>& img) {
          SparseInverseBatch(grid.grid(), grid.remap(supports[u]))
              .inverse_mag2(grid_spectrum, factors[u], img);
        },
        [&](std::size_t u) { return weights[u]; }, out);
    return out;
  }
};

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// Dims of the band-limited grid of \p support in an nx*ny frame.
std::pair<std::size_t, std::size_t> grid_dims(
    std::size_t nx, std::size_t ny, const std::vector<std::uint32_t>& support) {
  const BandLimitedGrid grid(Fft2d(nx, ny), support);
  return {grid.grid().nx(), grid.grid().ny()};
}

TEST(BandLimited, DimsFollowTheSupportExtent) {
  using Dims = std::pair<std::size_t, std::size_t>;
  // A ±9-bin disk: e = 18, 2e+1 = 37 -> 64 on both axes of a 256 frame.
  EXPECT_EQ(grid_dims(256, 256, disk_support(256, 256, 9.0)), Dims(64, 64));
  // Capped at the frame: on a 32-row frame the y axis cannot shrink.
  EXPECT_EQ(grid_dims(256, 32, disk_support(256, 32, 9.0)), Dims(64, 32));
  // The extent counts DC: bins 3..5 on x span 0..5, so 2*5+1 = 11 -> 16.
  EXPECT_EQ(grid_dims(64, 64, {3, 4, 5}), Dims(16, 1));
  // Negative bins count by magnitude: bin 60 of 64 is -4, so 2*4+1 -> 16.
  EXPECT_EQ(grid_dims(64, 64, {0, 60}), Dims(16, 1));
}

TEST(BandLimited, RemapPreservesOrderAndRejectsBinsOutsideTheExtent) {
  const std::size_t nx = 128, ny = 64;
  const auto disk = disk_support(nx, ny, 6.0);
  const BandLimitedGrid grid(Fft2d(nx, ny), disk);
  EXPECT_TRUE(grid.reduced());
  const std::size_t mx = grid.grid().nx(), my = grid.grid().ny();
  EXPECT_EQ(mx, 32u);
  EXPECT_EQ(my, 32u);
  const std::vector<std::uint32_t> mapped = grid.remap(disk);
  ASSERT_EQ(mapped.size(), disk.size());
  for (std::size_t j = 0; j < mapped.size(); ++j) {
    EXPECT_LT(mapped[j], mx * my);
    if (j > 0) {
      EXPECT_LT(mapped[j - 1], mapped[j]) << "order lost at " << j;
    }
    // Same signed bins on both grids.
    EXPECT_EQ(fft_freq(disk[j] % nx, nx) * static_cast<double>(nx),
              fft_freq(mapped[j] % mx, mx) * static_cast<double>(mx));
    EXPECT_EQ(fft_freq(disk[j] / nx, ny) * static_cast<double>(ny),
              fft_freq(mapped[j] / mx, my) * static_cast<double>(my));
  }
  // Bin (20, 0) lies outside the disk's ±6 extent: no silent alias.
  const std::vector<std::uint32_t> outside = {20};
  EXPECT_THROW(grid.remap(outside), util::CheckError);
}

TEST(BandLimited, WideDiskFrameIsNotReducedAndBitExact) {
  // The 32x32 wide disk of SparseBatch.MatchesDenseInverseBitExact
  // (|f|² <= 0.1 cycles², about ±10 bins) needs 2e+1 > 32: no axis can
  // shrink, so the band-limited path must be today's sum bit for bit.
  const std::size_t nx = 32, ny = 32;
  std::vector<std::uint32_t> support;
  for (std::size_t ky = 0; ky < ny; ++ky) {
    const double fy = fft_freq(ky, ny);
    for (std::size_t kx = 0; kx < nx; ++kx) {
      const double fx = fft_freq(kx, nx);
      if (fx * fx + fy * fy <= 0.1) {
        support.push_back(static_cast<std::uint32_t>(ky * nx + kx));
      }
    }
  }
  const Fft2d frame(nx, ny);
  const BandLimitedGrid grid(frame, support);
  EXPECT_FALSE(grid.reduced());
  EXPECT_EQ(grid.remap(support), support);
  const CoherentSum sum(nx, ny, support, 20, 404);
  EXPECT_EQ(sum.band_limited(grid), sum.full_frame(frame));
}

TEST(BandLimited, MatchesFullFrameSumOnReducedGrids) {
  // Square, non-square both ways, and a frame where only x shrinks.
  struct Shape { std::size_t nx, ny; double radius; };
  for (const Shape s : {Shape{256, 256, 9.0}, Shape{256, 128, 9.0},
                        Shape{64, 128, 5.0}, Shape{256, 32, 9.0}}) {
    const auto support = disk_support(s.nx, s.ny, s.radius);
    const Fft2d frame(s.nx, s.ny);
    const BandLimitedGrid grid(frame, support);
    ASSERT_TRUE(grid.reduced()) << s.nx << "x" << s.ny;
    const CoherentSum sum(s.nx, s.ny, support, 18, s.nx + s.ny);
    const std::vector<double> want = sum.full_frame(frame);
    const double peak = *std::max_element(want.begin(), want.end());
    ASSERT_GT(peak, 0.1);
    EXPECT_LE(max_abs_diff(sum.band_limited(grid), want), 1e-12 * peak)
        << s.nx << "x" << s.ny;
  }
}

/// One member's adjoint term IFFT(g . conj(E))(support[j]) for a random
/// real image g and field E on \p support: at frame size (the
/// reference) and through project + back_project on the support's grid.
std::pair<std::vector<Complex>, std::vector<Complex>> back_projections(
    std::size_t nx, std::size_t ny, const std::vector<std::uint32_t>& support,
    std::uint64_t seed) {
  const Fft2d frame(nx, ny);
  const BandLimitedGrid grid(frame, support);
  const std::vector<Complex> spectrum = random_complex(nx * ny, seed);
  const std::vector<Complex> factors = random_complex(support.size(), seed + 1);
  const std::vector<double> g = random_real(nx * ny, seed + 2);

  std::vector<Complex> field;
  SparseInverseBatch(frame, support)
      .inverse_field(spectrum.data(), factors, field);
  std::vector<Complex> work(nx * ny);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i] = g[i] * std::conj(field[i]);
  }
  frame.inverse(work);
  std::vector<Complex> want(support.size());
  for (std::size_t j = 0; j < support.size(); ++j) want[j] = work[support[j]];

  const std::vector<std::uint32_t> mapped = grid.remap(support);
  std::vector<Complex> grid_spectrum(grid.grid().nx() * grid.grid().ny());
  for (std::size_t j = 0; j < support.size(); ++j) {
    grid_spectrum[mapped[j]] = spectrum[support[j]];
  }
  std::vector<Complex> grid_field;
  SparseInverseBatch(grid.grid(), mapped)
      .inverse_field(grid_spectrum.data(), factors, grid_field);
  std::vector<double> projected;
  grid.project(g, projected);
  std::vector<Complex> got;
  grid.back_project(projected, grid_field, got);
  return {std::move(got), std::move(want)};
}

TEST(BandLimited, BackProjectMatchesFrameAdjointOnReducedGrids) {
  struct Shape { std::size_t nx, ny; double radius; bool half; };
  for (const Shape s :
       {Shape{256, 256, 9.0, false}, Shape{256, 128, 9.0, false},
        Shape{64, 128, 5.0, false}, Shape{256, 32, 9.0, false},
        Shape{256, 256, 9.0, true}}) {
    std::vector<std::uint32_t> support = disk_support(s.nx, s.ny, s.radius);
    if (s.half) {
      // Only kx in [1, radius]: an extent that is not symmetric about DC.
      std::erase_if(support, [&](std::uint32_t idx) {
        const std::size_t kx = idx % s.nx;
        return kx == 0 || kx > s.nx / 2;
      });
    }
    ASSERT_TRUE(BandLimitedGrid(Fft2d(s.nx, s.ny), support).reduced());
    const auto [got, want] =
        back_projections(s.nx, s.ny, support, s.nx + 3 * s.ny);
    ASSERT_EQ(got.size(), want.size());
    double peak = 0.0, worst = 0.0;
    for (std::size_t j = 0; j < want.size(); ++j) {
      peak = std::max(peak, std::abs(want[j]));
      worst = std::max(worst, std::abs(got[j] - want[j]));
    }
    ASSERT_GT(peak, 0.0);
    EXPECT_LE(worst, 1e-12 * peak) << s.nx << "x" << s.ny;
  }
}

TEST(BandLimited, BackProjectOnUnreducedFrameIsTheFrameAdjointBitExact) {
  const std::size_t nx = 32, ny = 32;
  const std::vector<std::uint32_t> support = disk_support(nx, ny, 12.0);
  ASSERT_FALSE(BandLimitedGrid(Fft2d(nx, ny), support).reduced());
  const auto [got, want] = back_projections(nx, ny, support, 77);
  EXPECT_EQ(got, want);
}

TEST(BandLimited, CountsOnlyReducedImages) {
  const auto count = [] {
    return trace::metrics()
        .counter(trace::metric::kLithoBandLimitedImages)
        .value();
  };
  const auto disk = disk_support(64, 64, 5.0);
  const CoherentSum sum(64, 64, disk, 3, 9);
  const std::uint64_t before = count();
  sum.band_limited(BandLimitedGrid(Fft2d(64, 64), disk));
  EXPECT_EQ(count(), before + 1);
  const auto wide = disk_support(16, 16, 5.0);
  const CoherentSum wide_sum(16, 16, wide, 3, 9);
  wide_sum.band_limited(BandLimitedGrid(Fft2d(16, 16), wide));
  EXPECT_EQ(count(), before + 1);
}

/// Dense-complex reference blur: full forward, transfer applied to
/// EVERY bin (mirror half included), full inverse. The production
/// r2c path (litho::gaussian_blur) touches only the kx <= nx/2 half
/// and leaves the mirror stale — the layout contract on
/// Fft2d::forward_real says that must not change the result.
Image blur_dense_reference(const Image& img, double sigma_nm) {
  const Frame& f = img.frame();
  std::vector<Complex> spec(f.nx * f.ny);
  for (std::size_t i = 0; i < spec.size(); ++i) spec[i] = img.values()[i];
  fft_2d(spec, f.nx, f.ny, /*inverse=*/false);
  const double c =
      -2.0 * std::numbers::pi * std::numbers::pi * sigma_nm * sigma_nm;
  for (std::size_t ky = 0; ky < f.ny; ++ky) {
    const double fy = fft_freq(ky, f.ny) / f.pixel_nm;
    for (std::size_t kx = 0; kx < f.nx; ++kx) {
      const double fx = fft_freq(kx, f.nx) / f.pixel_nm;
      spec[ky * f.nx + kx] *= std::exp(c * (fx * fx + fy * fy));
    }
  }
  fft_2d(spec, f.nx, f.ny, /*inverse=*/true);
  Image out(f);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    out.values()[i] = spec[i].real();
  }
  return out;
}

TEST(R2cLayoutContract, HalfSpectrumBlurMatchesDenseOnNonSquareFrames) {
  // Non-square on both orientations (nx > ny and nx < ny): a stride or
  // mirror-indexing mistake in the half-spectrum layout shows up only
  // when nx != ny.
  struct Shape { std::size_t nx, ny; };
  for (const Shape s : {Shape{64, 16}, Shape{16, 64}, Shape{32, 8}}) {
    Frame f;
    f.pixel_nm = 8.0;
    f.nx = s.nx;
    f.ny = s.ny;
    Image img(f);
    util::Rng rng(s.nx * 1000 + s.ny);
    for (auto& v : img.values()) v = rng.uniform(0, 1);
    for (const double sigma : {10.0, 25.0}) {
      const Image got = gaussian_blur(img, sigma);
      const Image want = blur_dense_reference(img, sigma);
      for (std::size_t i = 0; i < got.values().size(); ++i) {
        EXPECT_NEAR(got.values()[i], want.values()[i], 1e-12)
            << s.nx << "x" << s.ny << " sigma=" << sigma << " pixel " << i;
      }
    }
  }
}

TEST(PlanCacheTest, BuildsOncePerKeyAndCountsHits) {
  PlanCache& cache = PlanCache::instance();
  cache.clear();
  const auto a = cache.get(64, FftKind::kComplex);
  const auto b = cache.get(64, FftKind::kComplex);
  EXPECT_EQ(a.get(), b.get());  // same immutable plan object
  const auto c = cache.get(64, FftKind::kReal);  // distinct key
  EXPECT_NE(a.get(), c.get());
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.builds, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, ConcurrentRequestsShareOneBuild) {
  // The jobs=8 flow pattern: many workers requesting the same frame
  // shape at once. Exactly one build may happen; everyone must get the
  // same plan and correct transforms. (TSan gate: tools/ci.sh runs
  // this suite under -L fft in the tsan job.)
  PlanCache& cache = PlanCache::instance();
  cache.clear();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 16;
  std::vector<std::thread> threads;
  std::vector<const FftPlan*> seen(kThreads, nullptr);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const auto plan = cache.get(256, FftKind::kReal);
        seen[t] = plan.get();
        std::vector<Complex> v(256, Complex{1.0, 0.0});
        plan->transform(v.data(), FftDirection::kForward);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, kThreads * kIters - 1);
}

}  // namespace
}  // namespace opckit::litho
