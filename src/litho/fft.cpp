#include "litho/fft.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>

#include "trace/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace opckit::litho {

std::size_t next_pow2(std::size_t n) {
  // Beyond the top representable power of two the old loop shifted p
  // into 0 and spun forever.
  constexpr std::size_t kTop = std::size_t{1}
                               << (sizeof(std::size_t) * 8 - 1);
  OPCKIT_CHECK_MSG(n <= kTop, "next_pow2(" << n << ") overflows size_t");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double fft_freq(std::size_t k, std::size_t n) {
  OPCKIT_CHECK_MSG(n > 0 && k < n,
                   "fft_freq bin " << k << " out of range for n=" << n);
  const auto nk = static_cast<double>(k);
  const auto nn = static_cast<double>(n);
  // k <= (n-1)/2, not k < n/2: identical for every even n, but keeps
  // the lone bin of n == 1 at DC (the old comparison mapped it to -1).
  return k <= (n - 1) / 2 ? nk / nn : nk / nn - 1.0;
}

std::vector<std::uint32_t> FftPlan::bit_reversal(std::size_t n) {
  std::vector<std::uint32_t> rev(n);
  // Same incremental carry walk the old per-call permutation used.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev[i] = static_cast<std::uint32_t>(j);
  }
  return rev;
}

std::vector<Complex> FftPlan::stage_twiddles(std::size_t n, bool inverse) {
  // One concatenated table of n-1 entries: stage `len` contributes
  // len/2 twiddles at offset len/2-1. Generated with the exact
  // multiplicative recurrence (w *= wlen) the old per-butterfly code
  // ran, so table-driven butterflies reproduce its results bit for
  // bit.
  std::vector<Complex> tw(n > 0 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    Complex w(1.0, 0.0);
    Complex* stage = tw.data() + (len / 2 - 1);
    for (std::size_t k = 0; k < len / 2; ++k) {
      stage[k] = w;
      w *= wlen;
    }
  }
  return tw;
}

FftPlan::FftPlan(std::size_t n, FftKind kind) : n_(n), kind_(kind) {
  OPCKIT_CHECK_MSG(is_pow2(n), "FFT size " << n << " is not a power of two");
  OPCKIT_CHECK_MSG(n <= (std::size_t{1} << 31),
                   "FFT size " << n << " exceeds the planner's index range");
  rev_ = bit_reversal(n);
  tw_fwd_ = stage_twiddles(n, /*inverse=*/false);
  tw_inv_ = stage_twiddles(n, /*inverse=*/true);
  if (kind == FftKind::kReal && n >= 2) {
    const std::size_t half = n / 2;
    rev_half_ = bit_reversal(half);
    tw_fwd_half_ = stage_twiddles(half, /*inverse=*/false);
    tw_inv_half_ = stage_twiddles(half, /*inverse=*/true);
    split_.resize(half + 1);
    for (std::size_t k = 0; k <= half; ++k) {
      const double ang =
          -2.0 * std::numbers::pi * static_cast<double>(k) /
          static_cast<double>(n);
      split_[k] = Complex(std::cos(ang), std::sin(ang));
    }
  }
}

namespace {

/// Table-driven Cooley-Tukey core shared by the full-size and
/// half-size paths. Identical loop structure to the historic scalar
/// kernel; only the twiddles come from the plan instead of a serial
/// recurrence, which breaks the w *= wlen dependency chain.
void planned_fft(Complex* data, std::size_t n,
                 const std::uint32_t* rev, const Complex* tw) {
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Complex* stage = tw + (len / 2 - 1);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      Complex* lo = data + i;
      Complex* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = lo[k];
        const Complex v = hi[k] * stage[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

}  // namespace

void FftPlan::transform(Complex* data, FftDirection dir) const {
  planned_fft(data, n_, rev_.data(),
              dir == FftDirection::kForward ? tw_fwd_.data()
                                            : tw_inv_.data());
}

void FftPlan::transform_half(Complex* data, FftDirection dir) const {
  planned_fft(data, n_ / 2, rev_half_.data(),
              dir == FftDirection::kForward ? tw_fwd_half_.data()
                                            : tw_inv_half_.data());
}

void FftPlan::forward_real(const double* in, Complex* out) const {
  OPCKIT_CHECK_MSG(kind_ == FftKind::kReal,
                   "forward_real needs a kReal plan (size " << n_ << ")");
  if (n_ == 1) {
    out[0] = Complex(in[0], 0.0);
    return;
  }
  const std::size_t half = n_ / 2;
  // Pack even/odd samples into one half-size complex transform:
  // z[j] = x[2j] + i*x[2j+1], Z = FFT_{n/2}(z). With Fe/Fo the FFTs of
  // the even/odd subsequences (both real, hence Hermitian):
  //   Fe[k] = (Z[k] + conj(Z[n/2-k])) / 2
  //   Fo[k] = (Z[k] - conj(Z[n/2-k])) / (2i)
  //   X[k]  = Fe[k] + e^{-2*pi*i*k/n} * Fo[k],  k in [0, n/2].
  std::vector<Complex> z(half);
  for (std::size_t j = 0; j < half; ++j) {
    z[j] = Complex(in[2 * j], in[2 * j + 1]);
  }
  transform_half(z.data(), FftDirection::kForward);
  for (std::size_t k = 0; k <= half; ++k) {
    const Complex zk = z[k % half];
    const Complex zm = std::conj(z[(half - k) % half]);
    const Complex fe = 0.5 * (zk + zm);
    const Complex fo = (zk - zm) * Complex(0.0, -0.5);
    out[k] = fe + split_[k] * fo;
  }
}

void FftPlan::inverse_real(const Complex* in, double* out) const {
  OPCKIT_CHECK_MSG(kind_ == FftKind::kReal,
                   "inverse_real needs a kReal plan (size " << n_ << ")");
  if (n_ == 1) {
    out[0] = in[0].real();
    return;
  }
  const std::size_t half = n_ / 2;
  // Invert the split: recover Z[k] (scaled by 2 so the unnormalized
  // half-size inverse yields n*x overall — callers divide by n, the
  // same convention as the complex path).
  //   2*Fe[k]          = X[k] + conj(X[n/2-k])
  //   2*e^{-..}*Fo[k]  = X[k] - conj(X[n/2-k])
  //   Z[k]             = Fe[k] + i*Fo[k]  (doubled here)
  std::vector<Complex> z(half);
  for (std::size_t k = 0; k < half; ++k) {
    const Complex xk = in[k];
    const Complex xm = std::conj(in[half - k]);
    const Complex fe2 = xk + xm;
    const Complex fo2 = std::conj(split_[k]) * (xk - xm);
    z[k] = fe2 + Complex(0.0, 1.0) * fo2;
  }
  transform_half(z.data(), FftDirection::kInverse);
  for (std::size_t j = 0; j < half; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
}

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const FftPlan> PlanCache::get(std::size_t n, FftKind kind) {
  const Key key{n, static_cast<int>(kind)};
  // Build under the lock — the KernelCache discipline: the first touch
  // of a key blocks peers for the one-time table build (microseconds)
  // instead of letting them duplicate it; every later touch is a map
  // lookup.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.hits;
    trace::metrics().counter(trace::metric::kLithoFftPlanHits).add();
    return it->second;
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto plan = std::make_shared<const FftPlan>(n, kind);
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ++stats_.builds;
  trace::metrics().counter(trace::metric::kLithoFftPlanBuilds).add();
  trace::metrics().gauge(trace::metric::kLithoFftPlanBuildMs).add(ms);
  plans_.emplace(key, plan);
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
  stats_ = Stats{};
}

Fft2d::Fft2d(std::size_t nx, std::size_t ny)
    : nx_(nx),
      ny_(ny),
      // Rows get a kReal plan so one cached object serves both the
      // complex and the r2c row passes; columns only ever transform
      // complex data.
      row_(PlanCache::instance().get(nx, FftKind::kReal)),
      col_(PlanCache::instance().get(ny, FftKind::kComplex)) {}

namespace {

/// Columns of a row-major array, transformed in cache-blocked groups:
/// gather kBlock adjacent columns into contiguous scratch (each source
/// cache line feeds kBlock columns instead of one), transform, scatter
/// back. Arithmetic per column is identical to a one-at-a-time strided
/// pass — blocking changes the memory walk, not the results.
constexpr std::size_t kColBlock = 8;

}  // namespace

void Fft2d::column_pass(Complex* data, std::size_t cols,
                        FftDirection dir) const {
  std::vector<Complex> buf(kColBlock * ny_);
  for (std::size_t x0 = 0; x0 < cols; x0 += kColBlock) {
    const std::size_t b = std::min(kColBlock, cols - x0);
    for (std::size_t y = 0; y < ny_; ++y) {
      const Complex* row = data + y * cols + x0;
      for (std::size_t j = 0; j < b; ++j) buf[j * ny_ + y] = row[j];
    }
    for (std::size_t j = 0; j < b; ++j) {
      col_->transform(buf.data() + j * ny_, dir);
    }
    for (std::size_t y = 0; y < ny_; ++y) {
      Complex* row = data + y * cols + x0;
      for (std::size_t j = 0; j < b; ++j) row[j] = buf[j * ny_ + y];
    }
  }
}

void Fft2d::forward(std::vector<Complex>& data) const {
  OPCKIT_CHECK(data.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFft2dTransforms).add();
  for (std::size_t y = 0; y < ny_; ++y) {
    row_->transform(data.data() + y * nx_, FftDirection::kForward);
  }
  column_pass(data.data(), nx_, FftDirection::kForward);
}

void Fft2d::inverse(std::vector<Complex>& data) const {
  OPCKIT_CHECK(data.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFft2dTransforms).add();
  for (std::size_t y = 0; y < ny_; ++y) {
    row_->transform(data.data() + y * nx_, FftDirection::kInverse);
  }
  column_pass(data.data(), nx_, FftDirection::kInverse);
  const double inv = 1.0 / static_cast<double>(nx_ * ny_);
  for (auto& v : data) v *= inv;
}

void Fft2d::forward_real(std::span<const double> in,
                         std::vector<Complex>& out) const {
  OPCKIT_CHECK(in.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFftR2cTransforms).add();
  out.resize(nx_ * ny_);
  const std::size_t hx = nx_ / 2 + 1;
  std::vector<Complex> half(hx * ny_);
  for (std::size_t y = 0; y < ny_; ++y) {
    row_->forward_real(in.data() + y * nx_, half.data() + y * hx);
  }
  column_pass(half.data(), hx, FftDirection::kForward);
  // Scatter the computed half into full layout and fill the rest from
  // the 2-D Hermitian symmetry F[nx-kx, ny-ky] = conj(F[kx, ky]).
  for (std::size_t y = 0; y < ny_; ++y) {
    Complex* dst = out.data() + y * nx_;
    const Complex* src = half.data() + y * hx;
    for (std::size_t kx = 0; kx < hx; ++kx) dst[kx] = src[kx];
  }
  for (std::size_t y = 0; y < ny_; ++y) {
    Complex* dst = out.data() + y * nx_;
    const Complex* mirror = half.data() + ((ny_ - y) % ny_) * hx;
    for (std::size_t kx = hx; kx < nx_; ++kx) {
      dst[kx] = std::conj(mirror[nx_ - kx]);
    }
  }
}

void Fft2d::inverse_real(std::span<const Complex> in,
                         std::vector<double>& out) const {
  OPCKIT_CHECK(in.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFftC2rTransforms).add();
  out.resize(nx_ * ny_);
  const std::size_t hx = nx_ / 2 + 1;
  std::vector<Complex> half(hx * ny_);
  for (std::size_t y = 0; y < ny_; ++y) {
    const Complex* src = in.data() + y * nx_;
    Complex* dst = half.data() + y * hx;
    for (std::size_t kx = 0; kx < hx; ++kx) dst[kx] = src[kx];
  }
  column_pass(half.data(), hx, FftDirection::kInverse);
  for (std::size_t y = 0; y < ny_; ++y) {
    row_->inverse_real(half.data() + y * hx, out.data() + y * nx_);
  }
  const double inv = 1.0 / static_cast<double>(nx_ * ny_);
  for (auto& v : out) v *= inv;
}

SparseInverseBatch::SparseInverseBatch(
    const Fft2d& plan, std::span<const std::uint32_t> support)
    : plan_(plan), support_(support.begin(), support.end()) {
  const std::size_t nx = plan_.nx();
  const std::size_t n = nx * plan_.ny();
  constexpr std::uint32_t kNone = 0xffffffffu;
  row_slot_.assign(plan_.ny(), kNone);
  compact_.reserve(support_.size());
  for (std::size_t j = 0; j < support_.size(); ++j) {
    const std::uint32_t idx = support_[j];
    OPCKIT_CHECK_MSG(idx < n, "support index " << idx << " out of frame");
    OPCKIT_CHECK_MSG(j == 0 || support_[j - 1] < idx,
                     "support indices must be strictly ascending");
    const std::uint32_t ky = idx / static_cast<std::uint32_t>(nx);
    if (row_slot_[ky] == kNone) {
      row_slot_[ky] = static_cast<std::uint32_t>(rows_.size());
      rows_.push_back(ky);
    }
    compact_.push_back(row_slot_[ky] * static_cast<std::uint32_t>(nx) +
                       idx % static_cast<std::uint32_t>(nx));
  }
}

void SparseInverseBatch::inverse_mag2(const Complex* spectrum,
                                      std::span<const Complex> factors,
                                      std::vector<double>& out) const {
  OPCKIT_CHECK(factors.size() == support_.size());
  const std::size_t nx = plan_.nx();
  const std::size_t ny = plan_.ny();
  out.resize(nx * ny);
  trace::metrics().counter(trace::metric::kLithoFftBatchedTransforms).add();
  trace::metrics()
      .counter(trace::metric::kLithoFftRowsPruned)
      .add(rows_pruned());

  // Pruned row pass: only rows with support bins exist, in a compact
  // |rows|*nx buffer that stays cache resident. Rows without support
  // transform to exactly zero, so skipping them is bit-exact.
  const std::size_t nr = rows_.size();
  std::vector<Complex> field(nr * nx, Complex{0.0, 0.0});
  for (std::size_t j = 0; j < support_.size(); ++j) {
    field[compact_[j]] = spectrum[support_[j]] * factors[j];
  }
  const FftPlan& row_plan = plan_.row_plan();
  for (std::size_t s = 0; s < nr; ++s) {
    row_plan.transform(field.data() + s * nx, FftDirection::kInverse);
  }

  // Blocked column pass with fused epilogue: gather reads only the
  // touched rows (absent rows are exactly zero), and each transformed
  // column writes |v/(nx*ny)|² straight into the intensity buffer —
  // the complex image is never stored.
  const FftPlan& col_plan = plan_.col_plan();
  const double inv = 1.0 / static_cast<double>(nx * ny);
  std::vector<Complex> buf(kColBlock * ny);
  for (std::size_t x0 = 0; x0 < nx; x0 += kColBlock) {
    const std::size_t b = std::min(kColBlock, nx - x0);
    std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(b * ny),
              Complex{0.0, 0.0});
    for (std::size_t s = 0; s < nr; ++s) {
      const std::size_t y = rows_[s];
      const Complex* row = field.data() + s * nx + x0;
      for (std::size_t j = 0; j < b; ++j) buf[j * ny + y] = row[j];
    }
    for (std::size_t j = 0; j < b; ++j) {
      col_plan.transform(buf.data() + j * ny, FftDirection::kInverse);
    }
    for (std::size_t y = 0; y < ny; ++y) {
      double* orow = out.data() + y * nx + x0;
      const Complex* brow = buf.data() + y;
      for (std::size_t j = 0; j < b; ++j) {
        orow[j] = std::norm(brow[j * ny] * inv);
      }
    }
  }
}

void SparseInverseBatch::inverse_field(const Complex* spectrum,
                                       std::span<const Complex> factors,
                                       std::vector<Complex>& out) const {
  OPCKIT_CHECK(factors.size() == support_.size());
  const std::size_t nx = plan_.nx();
  const std::size_t ny = plan_.ny();
  out.assign(nx * ny, Complex{0.0, 0.0});
  trace::metrics().counter(trace::metric::kLithoFftBatchedTransforms).add();
  trace::metrics()
      .counter(trace::metric::kLithoFftRowsPruned)
      .add(rows_pruned());

  // Identical pruned row pass to inverse_mag2.
  const std::size_t nr = rows_.size();
  std::vector<Complex> field(nr * nx, Complex{0.0, 0.0});
  for (std::size_t j = 0; j < support_.size(); ++j) {
    field[compact_[j]] = spectrum[support_[j]] * factors[j];
  }
  const FftPlan& row_plan = plan_.row_plan();
  for (std::size_t s = 0; s < nr; ++s) {
    row_plan.transform(field.data() + s * nx, FftDirection::kInverse);
  }

  // Blocked column pass; the epilogue writes the normalized complex
  // value instead of fusing |·|².
  const FftPlan& col_plan = plan_.col_plan();
  const double inv = 1.0 / static_cast<double>(nx * ny);
  std::vector<Complex> buf(kColBlock * ny);
  for (std::size_t x0 = 0; x0 < nx; x0 += kColBlock) {
    const std::size_t b = std::min(kColBlock, nx - x0);
    std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(b * ny),
              Complex{0.0, 0.0});
    for (std::size_t s = 0; s < nr; ++s) {
      const std::size_t y = rows_[s];
      const Complex* row = field.data() + s * nx + x0;
      for (std::size_t j = 0; j < b; ++j) buf[j * ny + y] = row[j];
    }
    for (std::size_t j = 0; j < b; ++j) {
      col_plan.transform(buf.data() + j * ny, FftDirection::kInverse);
    }
    for (std::size_t y = 0; y < ny; ++y) {
      Complex* orow = out.data() + y * nx + x0;
      const Complex* brow = buf.data() + y;
      for (std::size_t j = 0; j < b; ++j) {
        orow[j] = brow[j * ny] * inv;
      }
    }
  }
}

namespace {

/// Signed frequency of bin k in a length-n transform — fft_freq's
/// wrap-around convention in bins: [0, (n-1)/2] positive, the rest
/// negative.
long signed_bin(std::size_t k, std::size_t n) {
  return k <= (n - 1) / 2 ? static_cast<long>(k)
                          : static_cast<long>(k) - static_cast<long>(n);
}

/// Signed bin range [lo, hi] of one axis over the support, DC included.
struct AxisExtent {
  long lo = 0, hi = 0;
};

std::pair<AxisExtent, AxisExtent> support_extents(
    std::size_t nx, std::size_t ny, std::span<const std::uint32_t> support) {
  AxisExtent ex, ey;
  for (const std::uint32_t idx : support) {
    OPCKIT_CHECK_MSG(idx < nx * ny, "support index " << idx << " out of frame");
    const long sx = signed_bin(idx % nx, nx);
    const long sy = signed_bin(idx / nx, ny);
    ex = {std::min(ex.lo, sx), std::max(ex.hi, sx)};
    ey = {std::min(ey.lo, sy), std::max(ey.hi, sy)};
  }
  return {ex, ey};
}

std::size_t reduced_size(const AxisExtent& e, std::size_t n) {
  const auto span = static_cast<std::size_t>(e.hi - e.lo);
  return std::min(next_pow2(2 * span + 1), n);
}

/// Bin k of a length-n axis on the length-m grid: s -> s mod m. The
/// identity when m == n.
std::size_t remap_bin(std::size_t k, std::size_t n, std::size_t m) {
  const long s = signed_bin(k, n);
  return s >= 0 ? static_cast<std::size_t>(s)
                : static_cast<std::size_t>(static_cast<long>(m) + s);
}

/// Per-axis dims of the band-limited grid: m = next_pow2(2e+1) capped
/// at the frame size, e the axis's signed extent of support ∪ DC.
std::pair<std::size_t, std::size_t> band_limited_dims(
    std::size_t nx, std::size_t ny, std::span<const std::uint32_t> support) {
  const auto [ex, ey] = support_extents(nx, ny, support);
  return {reduced_size(ex, nx), reduced_size(ey, ny)};
}

}  // namespace

BandLimitedGrid::BandLimitedGrid(const Fft2d& frame,
                                 std::span<const std::uint32_t> support)
    : frame_(frame),
      grid_([&] {
        const auto [mx, my] =
            band_limited_dims(frame.nx(), frame.ny(), support);
        return Fft2d(mx, my);
      }()),
      support_(support.begin(), support.end()) {
  const auto [ex, ey] = support_extents(frame.nx(), frame.ny(), support);
  x_lo_ = ex.lo;
  x_hi_ = ex.hi;
  y_lo_ = ey.lo;
  y_hi_ = ey.hi;
  mapped_ = remap(support_);
  if (!reduced()) return;
  // Kept bins per axis: all of an unreduced one; |k| < m/2 of a reduced
  // one — its Nyquist bin m/2 is zero in exact arithmetic (2e+1 <= m).
  // Only the kx <= mx/2 half: both c2r passes read nothing else.
  const std::size_t nx = frame_.nx(), ny = frame_.ny();
  const std::size_t mx = grid_.nx(), my = grid_.ny();
  const std::size_t kx_end = mx < nx ? (mx + 1) / 2 : nx / 2 + 1;
  for (std::size_t ky = 0; ky < my; ++ky) {
    const bool negative = ky > (my - 1) / 2;
    if (negative && my < ny && ky == my / 2) continue;
    const std::size_t fy = negative ? ky + (ny - my) : ky;
    for (std::size_t kx = 0; kx < kx_end; ++kx) {
      band_grid_.push_back(static_cast<std::uint32_t>(ky * mx + kx));
      band_frame_.push_back(static_cast<std::uint32_t>(fy * nx + kx));
    }
  }
}

std::vector<std::uint32_t> BandLimitedGrid::remap(
    std::span<const std::uint32_t> frame_support) const {
  const std::size_t nx = frame_.nx(), ny = frame_.ny();
  const std::size_t mx = grid_.nx(), my = grid_.ny();
  std::vector<std::uint32_t> out;
  out.reserve(frame_support.size());
  for (const std::uint32_t idx : frame_support) {
    OPCKIT_CHECK_MSG(idx < nx * ny, "support index " << idx << " out of frame");
    const std::size_t kx = idx % nx, ky = idx / nx;
    const long sx = signed_bin(kx, nx), sy = signed_bin(ky, ny);
    OPCKIT_CHECK_MSG(sx >= x_lo_ && sx <= x_hi_ && sy >= y_lo_ && sy <= y_hi_,
                     "bin " << idx << " lies outside the band-limited grid's "
                            "support extent");
    out.push_back(static_cast<std::uint32_t>(remap_bin(ky, ny, my) * mx +
                                             remap_bin(kx, nx, mx)));
  }
  return out;
}

void BandLimitedGrid::intensity_sum(
    const Complex* spectrum, std::size_t units, const Member& member,
    const std::function<double(std::size_t)>& weight,
    std::vector<double>& out) const {
  const std::size_t m = grid_.nx() * grid_.ny();
  // On a reduced grid, gather the spectrum's support bins into grid
  // layout (the members read nothing else); otherwise the grid is the
  // frame and the members read the frame spectrum directly.
  std::vector<Complex> local;
  const Complex* grid_spectrum = spectrum;
  if (reduced()) {
    local.assign(m, Complex{0.0, 0.0});
    for (std::size_t j = 0; j < support_.size(); ++j) {
      local[mapped_[j]] = spectrum[support_[j]];
    }
    grid_spectrum = local.data();
  }
  std::vector<double> sum(m, 0.0);
  detail::weighted_intensity_sum(
      units, m,
      [&](std::size_t u, std::vector<double>& img) {
        member(u, grid_spectrum, img);
      },
      weight, sum);
  if (!reduced()) {
    out = std::move(sum);
    return;
  }
  trace::metrics().counter(trace::metric::kLithoBandLimitedImages).add();
  upsample(sum, out);
}

void BandLimitedGrid::upsample(std::span<const double> sum,
                               std::vector<double>& out) const {
  const std::size_t nx = frame_.nx(), ny = frame_.ny();
  const std::size_t mx = grid_.nx(), my = grid_.ny();
  std::vector<Complex> small;
  grid_.forward_real(sum, small);
  // One factor, reduced pixels / frame pixels: the members' inverses
  // normalized by 1/(mx·my) instead of 1/(nx·ny), which scales every
  // |E|² by (nx·ny/(mx·my))², and interpolation scales the spectrum by
  // nx·ny/(mx·my) before inverse_real divides by nx·ny. A ratio of
  // powers of two, so the multiply is exact.
  const double scale =
      static_cast<double>(mx * my) / static_cast<double>(nx * ny);
  std::vector<Complex> wide(nx * ny, Complex{0.0, 0.0});
  for (std::size_t b = 0; b < band_grid_.size(); ++b) {
    wide[band_frame_[b]] = small[band_grid_[b]] * scale;
  }
  frame_.inverse_real(wide, out);
}

void BandLimitedGrid::project(std::span<const double> image,
                              std::vector<double>& out) const {
  OPCKIT_CHECK(image.size() == frame_.nx() * frame_.ny());
  if (!reduced()) {
    out.assign(image.begin(), image.end());
    return;
  }
  std::vector<Complex> wide;
  frame_.forward_real(image, wide);
  // The grid's c2r divides by mx·my where the frame's would divide by
  // nx·ny: the samples come out scaled by (nx·ny)/(mx·my), like the
  // members' fields.
  std::vector<Complex> small(grid_.nx() * grid_.ny(), Complex{0.0, 0.0});
  for (std::size_t b = 0; b < band_grid_.size(); ++b) {
    small[band_grid_[b]] = wide[band_frame_[b]];
  }
  grid_.inverse_real(small, out);
}

void BandLimitedGrid::back_project(std::span<const double> projected,
                                   std::span<const Complex> field,
                                   std::vector<Complex>& out) const {
  const std::size_t m = grid_.nx() * grid_.ny();
  OPCKIT_CHECK(projected.size() == m && field.size() == m);
  std::vector<Complex> work(m);
  for (std::size_t i = 0; i < m; ++i) {
    work[i] = projected[i] * std::conj(field[i]);
  }
  grid_.inverse(work);
  // Both factors carry (nx·ny)/(mx·my); the grid inverse averages over
  // its samples as the frame's does over its own, and reads no aliased
  // bin at the support (|h| < m/2 and |support − support| <= e < m/2).
  // So the frame value is (mx·my/(nx·ny))² times the grid's, a power of
  // two, and the multiply is exact.
  const double ratio = static_cast<double>(m) /
                       static_cast<double>(frame_.nx() * frame_.ny());
  const double scale = ratio * ratio;
  out.resize(mapped_.size());
  for (std::size_t j = 0; j < mapped_.size(); ++j) {
    out[j] = work[mapped_[j]] * scale;
  }
}

namespace detail {

void weighted_intensity_sum(
    std::size_t units, std::size_t n,
    const std::function<void(std::size_t, std::vector<double>&)>& compute,
    const std::function<double(std::size_t)>& weight,
    std::vector<double>& acc) {
  OPCKIT_CHECK(acc.size() == n);
  // At most kChunk per-unit frames resident at once; accumulation runs
  // in ascending unit order within and across chunks — the same order
  // as an all-at-once reduction, so results are bit-identical at any
  // thread count while peak memory stays O(kChunk·n).
  constexpr std::size_t kChunk = 16;
  std::vector<std::vector<double>> scratch(std::min(kChunk, units));
  for (auto& buf : scratch) buf.resize(n);
  for (std::size_t base = 0; base < units; base += kChunk) {
    const std::size_t m = std::min(kChunk, units - base);
    util::global_pool().parallel_for(
        m, [&](std::size_t j) { compute(base + j, scratch[j]); });
    for (std::size_t j = 0; j < m; ++j) {
      const double w = weight(base + j);
      const std::vector<double>& img = scratch[j];
      for (std::size_t i = 0; i < n; ++i) acc[i] += w * img[i];
    }
  }
}

}  // namespace detail

void fft_1d(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  OPCKIT_CHECK_MSG(is_pow2(n), "FFT size " << n << " is not a power of two");
  const auto plan = PlanCache::instance().get(n, FftKind::kComplex);
  plan->transform(data.data(),
                  inverse ? FftDirection::kInverse : FftDirection::kForward);
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& v : data) v *= inv;
  }
}

void fft_2d(std::vector<Complex>& data, std::size_t nx, std::size_t ny,
            bool inverse) {
  OPCKIT_CHECK(data.size() == nx * ny);
  OPCKIT_CHECK_MSG(is_pow2(nx) && is_pow2(ny),
                   "FFT dims " << nx << 'x' << ny << " not powers of two");
  const Fft2d plan(nx, ny);
  if (inverse) {
    plan.inverse(data);
  } else {
    plan.forward(data);
  }
}

}  // namespace opckit::litho
