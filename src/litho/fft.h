/// \file fft.h
/// Planned radix-2 FFT engine (1D and 2D), self-contained.
///
/// The imaging engines spend >99.9 % of flow wall-clock in 2-D
/// transforms (T3), so the engine is built around *plans*: an FftPlan
/// precomputes the bit-reversal permutation and per-stage twiddle
/// tables for one size once, and every subsequent transform of that
/// size is pure table-driven butterflies. Plans are immutable after
/// construction and shared process-wide through PlanCache (same
/// lifecycle discipline as litho::KernelCache): one build per (size,
/// kind) per process, every later transform — any tile, any OPC
/// iteration, any flow — reuses it.
///
/// Four transform tiers, fastest path last:
///
///  1. Complex 1-D/2-D (`FftPlan::transform`, `Fft2d::forward/inverse`)
///     — the drop-in replacement for the old scalar kernel. The
///     twiddle tables are generated with the exact multiplicative
///     recurrence the old per-butterfly code used, so planned complex
///     transforms are BIT-IDENTICAL to the pre-plan implementation:
///     flow output cannot move by switching to plans.
///  2. Real-to-complex forward / complex-to-real inverse
///     (`forward_real`/`inverse_real`) — mask transmission is real, so
///     its spectrum is Hermitian (F[-k] = conj(F[k])) and only half of
///     it is independent. The r2c path packs even/odd samples into a
///     half-size complex transform plus an O(n) split pass (~2x on the
///     mask-spectrum forward), computes columns only for kx <= nx/2,
///     and mirrors the remaining half. Numerically equivalent to the
///     complex path within ~1e-15 relative (the parity suite pins
///     1e-12), not bit-identical.
///  3. Batched sparse inverse (`SparseInverseBatch`) — the SOCS/Abbe
///     hot loop Σ w·|IFFT(spectrum·filter)|² transforms fields that
///     are nonzero only on the pupil support, a small disk of
///     frequency bins. All batch members share one plan and one
///     support, so the row/column pruning structure is computed once:
///     rows with no support bins are skipped outright (their transform
///     is exactly zero — skipping is bit-exact, not approximate),
///     touched rows live in a compact cache-resident buffer, the
///     column pass gathers blocks of columns to stay cache-friendly,
///     and the |·|² + 1/(nx·ny) normalization is fused into the column
///     epilogue so the complex image is never materialized. The fused
///     result is bit-identical to transform-then-normalize-then-|·|²
///     of the pre-plan engine (same operations, same order, zero rows
///     dropped exactly).
///  4. Band-limited coherent sum (`BandLimitedGrid`) — every batch
///     member's field lives on the support, whose signed frequency
///     extent per axis is e bins, so each |E|² has its spectrum inside
///     ±e and the weighted sum of them does too. A grid of
///     m = next_pow2(2e+1) samples per axis (capped at the frame size)
///     therefore holds that sum exactly: the support is remapped onto
///     the m-grid (order preserved), every member runs its tier-3
///     inverse there, the weighted sum is taken at m·m pixels, and one
///     r2c → embed → c2r Fourier interpolation carries it to the frame.
///     The embed drops only the reduced Nyquist bin, which is zero in
///     exact arithmetic because 2e+1 ≤ m. Equivalent to the full-frame
///     sum within rounding (~1e-15 on unit intensities); an axis that
///     cannot shrink passes through unchanged, and with neither axis
///     shrinking the result is the tier-3 sum, bit for bit.
///     The same grid carries the sum's adjoint (the ILT gradient). For
///     f on the support, IFFT(g·conj E)(f) = Σ_h G[h−f]·conj(A[h])/N²
///     with G the spectrum of a real cotangent image g and A = E's
///     spectrum, so it reads G only at |k| ≤ e < m/2: `project` keeps
///     those bins of g (r2c on the frame → c2r on the grid), and
///     `back_project` forms g·conj(E) at m·m pixels, runs one grid-
///     size inverse and reads it at the remapped support bins. Exact
///     (no aliasing), within rounding of the frame-size adjoint, and
///     (m/n)² as many pixels per member.
///
/// Sizes are powers of two. Convention: forward is unnormalized,
/// inverse divides by N (1D) or Nx*Ny (2D), so ifft(fft(x)) == x; the
/// unnormalized FftPlan primitives document their own scaling.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace opckit::litho {

using Complex = std::complex<double>;

/// True if \p n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n. Checked: \p n must be representable,
/// i.e. n <= 2^63 on 64-bit size_t (the old version hung in an
/// infinite shift-overflow loop beyond that).
std::size_t next_pow2(std::size_t n);

/// Frequency (cycles per sample) of FFT bin \p k in a length-\p n
/// transform, using the standard wrap-around convention: bins [0, n/2)
/// map to [0, 0.5) and bins [n/2, n) map to [-0.5, 0). Checked:
/// n > 0 and k < n.
double fft_freq(std::size_t k, std::size_t n);

/// Transform direction. Plans hold twiddle tables for both, so one
/// cached plan serves the forward/inverse pairing every consumer does.
enum class FftDirection { kForward, kInverse };

/// What a plan is specialized for. kComplex carries the bit-reversal
/// and per-stage twiddles for complex transforms of size n; kReal is a
/// superset that additionally carries the half-size tables and split
/// twiddles the r2c/c2r paths need.
enum class FftKind { kComplex, kReal };

/// Precomputed transform schedule for one 1-D size: bit-reversal
/// permutation plus per-stage twiddle tables for both directions
/// (and, for kReal, the half-size sub-plan and split twiddles).
/// Immutable after construction; all methods are const and
/// thread-safe. Size must be a power of two.
class FftPlan {
 public:
  FftPlan(std::size_t n, FftKind kind);

  std::size_t size() const { return n_; }
  FftKind kind() const { return kind_; }

  /// Unnormalized in-place complex transform (caller divides by n for
  /// the inverse). Bit-identical to the pre-plan scalar kernel: the
  /// twiddle tables are built with the same multiplicative recurrence
  /// and the butterflies run in the same order.
  void transform(Complex* data, FftDirection dir) const;

  /// r2c forward: n real samples -> the n/2+1 independent bins of the
  /// Hermitian spectrum (out[k] = F[k] for k in [0, n/2]).
  /// Unnormalized, matches transform(kForward) within rounding.
  /// Requires kind() == kReal.
  void forward_real(const double* in, Complex* out) const;

  /// c2r inverse of a Hermitian half-spectrum: n/2+1 complex bins ->
  /// n real samples. Unnormalized (divide by n to invert
  /// forward_real). The conjugate-mirror bins are implied, never read.
  /// Requires kind() == kReal.
  void inverse_real(const Complex* in, double* out) const;

 private:
  /// Complex transform of size n_/2 using the half-size tables.
  void transform_half(Complex* data, FftDirection dir) const;

  static std::vector<std::uint32_t> bit_reversal(std::size_t n);
  static std::vector<Complex> stage_twiddles(std::size_t n, bool inverse);

  std::size_t n_;
  FftKind kind_;
  std::vector<std::uint32_t> rev_;        ///< bit-reversal for size n
  std::vector<Complex> tw_fwd_, tw_inv_;  ///< stage tables, concatenated
  // kReal extras: the half-size sub-plan (r2c runs a complex n/2
  // transform on packed even/odd samples) and the split twiddles
  // e^{-2*pi*i*k/n}, k in [0, n/2].
  std::vector<std::uint32_t> rev_half_;
  std::vector<Complex> tw_fwd_half_, tw_inv_half_;
  std::vector<Complex> split_;
};

/// Process-wide plan cache keyed on (size, kind) — the KernelCache
/// discipline applied to transform schedules: the first request for a
/// key builds (and records `litho.fft_plan_*` metrics), every later
/// request is a map lookup returning the same immutable plan.
/// Thread-safe; never evicts (a process sees a handful of distinct
/// frame sizes at most, and a plan is a few KB).
class PlanCache {
 public:
  struct Stats {
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
  };

  /// The process-wide instance.
  static PlanCache& instance();

  /// Return the plan for (n, kind), building on first touch. A kReal
  /// plan also serves complex transforms of the same size, but the two
  /// kinds are distinct cache keys: callers that never touch the real
  /// path don't pay for its tables.
  std::shared_ptr<const FftPlan> get(std::size_t n, FftKind kind);

  Stats stats() const;
  std::size_t size() const;
  /// Drop all entries and reset stats (test hook).
  void clear();

 private:
  using Key = std::pair<std::size_t, int>;

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const FftPlan>> plans_;
  Stats stats_;
};

/// Planned 2-D transform engine bound to one (nx, ny) shape: holds the
/// row/column plans from the PlanCache and runs cache-blocked column
/// passes (columns are gathered in blocks into contiguous scratch
/// instead of transformed one strided column at a time). Immutable
/// after construction; methods are const and thread-safe (per-call
/// scratch). Both dims must be powers of two.
class Fft2d {
 public:
  Fft2d(std::size_t nx, std::size_t ny);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  const FftPlan& row_plan() const { return *row_; }
  const FftPlan& col_plan() const { return *col_; }

  /// In-place complex 2-D transform of a row-major nx*ny array.
  /// Forward is unnormalized; inverse divides by nx*ny. Bit-identical
  /// to the pre-plan fft_2d.
  void forward(std::vector<Complex>& data) const;
  void inverse(std::vector<Complex>& data) const;

  /// r2c 2-D forward: real row-major image -> the FULL nx*ny complex
  /// spectrum (rows via r2c, columns only for kx <= nx/2, remaining
  /// bins filled by the Hermitian mirror F[-kx,-ky] = conj(F[kx,ky])).
  /// ~2x the complex forward; equivalent within ~1e-15 relative.
  ///
  /// ## Half-spectrum layout contract (r2c round trips)
  ///
  /// The output is a FULL row-stride array: bin (kx, ky) lives at
  /// out[ky * nx + kx] for every kx in [0, nx), NOT a packed
  /// (nx/2+1)-stride half array. At return the whole array is valid,
  /// including the kx > nx/2 mirror half. The round-trip contract is
  /// asymmetric on purpose:
  ///
  ///  - inverse_real reads ONLY the independent half, kx <= nx/2 of
  ///    every row (full row stride). A caller that filters the spectrum
  ///    between forward_real and inverse_real therefore only needs to
  ///    touch bins with kx <= nx/2 — the mirror half may go STALE
  ///    (hold pre-filter values) without affecting the result. The
  ///    resist gaussian_blur transfer multiply relies on exactly this.
  ///  - any consumer that reads the full layout (dense complex
  ///    inverses, kernel-support gathers at kx > nx/2) must either
  ///    apply its filter to both halves or re-mirror after filtering:
  ///    the layout itself does not re-synchronize.
  ///
  /// Filters applied to the kx <= nx/2 half must be conjugate-symmetric
  /// (real transfer functions of |f| qualify) for the implied mask to
  /// stay Hermitian; inverse_real assumes Hermitian input and returns
  /// the real part's image regardless.
  void forward_real(std::span<const double> in,
                    std::vector<Complex>& out) const;

  /// c2r 2-D inverse of a Hermitian spectrum in full layout: only the
  /// kx <= nx/2 half of each row is read (the mirror half may be stale
  /// — see the layout contract on forward_real), output is the real
  /// image with 1/(nx*ny) normalization applied.
  void inverse_real(std::span<const Complex> in,
                    std::vector<double>& out) const;

 private:
  friend class SparseInverseBatch;

  /// Blocked column pass over columns [0, cols) of \p data in place.
  void column_pass(Complex* data, std::size_t cols, FftDirection dir) const;

  std::size_t nx_, ny_;
  std::shared_ptr<const FftPlan> row_;  ///< kReal (serves complex + r2c)
  std::shared_ptr<const FftPlan> col_;  ///< kComplex
};

/// A batch of same-size inverse transforms sharing one plan and one
/// sparse frequency support — the per-kernel IFFTs of the SOCS image
/// sum Σ λ_k·|IFFT(spectrum·φ_k)|² (and the per-source-point loop of
/// the Abbe engine). Binding the support once lets every member reuse
/// the pruning structure:
///
///  - rows with no support bins are never transformed (their row FFT
///    is identically zero — exact, not approximate), and the touched
///    rows live in a compact |rows|·nx scratch that stays cache
///    resident;
///  - the column pass gathers blocks of columns reading only the
///    touched rows;
///  - the inverse normalization and |·|² are fused into the column
///    epilogue, writing the real intensity directly — the complex
///    image is never materialized.
///
/// The result is bit-identical to the unpruned inverse + normalize +
/// |·|² sequence of the pre-plan engine. Thread-safe: each call uses
/// its own scratch, so batch members may run on pool workers
/// concurrently (exactly how detail::weighted_intensity_sum drives
/// it).
class SparseInverseBatch {
 public:
  /// \p support: ascending flat frame indices (ky*nx + kx) of the bins
  /// that may be nonzero in every batch member.
  SparseInverseBatch(const Fft2d& plan,
                     std::span<const std::uint32_t> support);

  /// Distinct frequency rows covered by the support (the rows the
  /// pruned row pass actually transforms).
  std::size_t support_rows() const { return rows_.size(); }
  /// Rows skipped per transform relative to the dense pass.
  std::size_t rows_pruned() const { return plan_.ny() - rows_.size(); }

  /// Compute out[i] = |IFFT(field)(i)|² over the full frame, where
  /// field[support[j]] = spectrum[support[j]] * factors[j] and zero
  /// elsewhere; the inverse carries the 1/(nx*ny) normalization.
  /// \p spectrum points at a full nx*ny layout; \p factors aligns with
  /// the support; \p out is resized to nx*ny.
  void inverse_mag2(const Complex* spectrum,
                    std::span<const Complex> factors,
                    std::vector<double>& out) const;

  /// Same pruned inverse, but materializing the normalized COMPLEX
  /// field: out[i] = IFFT(field)(i) with field as in inverse_mag2.
  /// The ILT adjoint needs the per-kernel coherent fields E_k (not just
  /// |E_k|²) to form conj(E_k)·∂C/∂I, so this skips the fused |·|²
  /// epilogue. |out[i]|² is bit-identical to inverse_mag2's out[i].
  void inverse_field(const Complex* spectrum,
                     std::span<const Complex> factors,
                     std::vector<Complex>& out) const;

 private:
  Fft2d plan_;
  std::vector<std::uint32_t> support_;    ///< ascending flat indices
  std::vector<std::uint32_t> rows_;       ///< distinct ky values, ascending
  std::vector<std::uint32_t> compact_;    ///< scatter target per support bin
  std::vector<std::uint32_t> row_slot_;   ///< ky -> slot in rows_ (or npos)
};

/// Tier 4: the smallest grid that holds the intensity spectrum of
/// fields confined to one support, plus the single Fourier
/// interpolation that carries a sum computed there back to the frame.
/// Per axis the grid has m = next_pow2(2e+1) samples, capped at the
/// frame size, where e is the axis's signed bin extent (max minus min,
/// bins at or above n/2 counting as negative) of the support together
/// with DC. Including DC keeps the remap s -> s mod m order-preserving
/// for any support; physical pupil supports contain DC anyway.
/// Both imaging engines take their weighted coherent sum through
/// intensity_sum — SOCS with one batch shared by all kernels, Abbe
/// with one batch per source point, both remapped onto this grid.
/// Immutable after construction; thread-safe.
class BandLimitedGrid {
 public:
  /// \p frame: the frame's transform engine; \p support: ascending
  /// flat frame indices of every bin any member field may occupy.
  BandLimitedGrid(const Fft2d& frame, std::span<const std::uint32_t> support);

  /// Transform engine of the reduced grid (the frame's shape when no
  /// axis shrinks).
  const Fft2d& grid() const { return grid_; }
  /// True when at least one axis is smaller than the frame's.
  bool reduced() const {
    return grid_.nx() != frame_.nx() || grid_.ny() != frame_.ny();
  }

  /// Map ascending flat frame indices inside the support's extent to
  /// flat grid indices. Order-preserving, so the result is a valid
  /// SparseInverseBatch support on grid().
  std::vector<std::uint32_t> remap(
      std::span<const std::uint32_t> frame_support) const;

  /// Member u's |field|² on grid(): reads the spectrum in grid layout
  /// (only the support's bins are valid) and overwrites every element
  /// of the grid-sized output buffer.
  using Member =
      std::function<void(std::size_t, const Complex*, std::vector<double>&)>;

  /// out = Σ_u weight(u)·member_u on the frame (out is resized to
  /// nx*ny). \p spectrum is the frame spectrum in full layout. The
  /// members are summed in ascending order at grid size through
  /// detail::weighted_intensity_sum, then interpolated to the frame
  /// once; without a reduced axis the sum is written as is.
  void intensity_sum(const Complex* spectrum, std::size_t units,
                     const Member& member,
                     const std::function<double(std::size_t)>& weight,
                     std::vector<double>& out) const;

  /// Band projection of a real frame image onto grid(): keep the bins
  /// the grid holds (|k| < m/2 on a reduced axis, all of an unreduced
  /// one) and inverse them at grid size. The samples carry the factor
  /// (frame pixels / grid pixels) that the members' grid fields carry
  /// too. Without a reduced axis \p out is a copy of \p image.
  void project(std::span<const double> image, std::vector<double>& out) const;

  /// One member's back-projection onto the support: out[j] =
  /// IFFT(g·conj(E))(support[j]) in frame normalization, where g is the
  /// frame image behind \p projected (from project) and E the frame
  /// field behind \p field (a grid field, as inverse_field writes it
  /// on the remapped support). Runs at grid size; \p out aligns with
  /// the support.
  void back_project(std::span<const double> projected,
                    std::span<const Complex> field,
                    std::vector<Complex>& out) const;

 private:
  /// Fourier-interpolate a grid-sized band-limited image to the frame.
  void upsample(std::span<const double> sum, std::vector<double>& out) const;

  Fft2d frame_;
  Fft2d grid_;
  std::vector<std::uint32_t> support_;  ///< flat frame indices, ascending
  std::vector<std::uint32_t> mapped_;   ///< support_ remapped onto grid_
  long x_lo_ = 0, x_hi_ = 0;  ///< signed x-bin range of support ∪ DC
  long y_lo_ = 0, y_hi_ = 0;  ///< signed y-bin range of support ∪ DC
  /// The half-spectrum bins (kx ≤ grid nx/2) both grid and frame hold,
  /// as flat grid and frame indices: the bins upsample embeds and
  /// project keeps. Empty without a reduced axis.
  std::vector<std::uint32_t> band_grid_, band_frame_;
};

namespace detail {

/// Deterministic chunked reduction: acc[i] += Σ_u weight(u)·frame_u[i],
/// where frame_u is produced by compute(u, out) into a caller-invisible
/// scratch buffer of size \p n (compute must overwrite every element).
/// Units are computed in parallel (util::global_pool) but accumulated
/// serially in ascending unit order, chunked so at most a fixed small
/// number of frames is resident at once — O(chunk·n) peak instead of
/// the O(units·n) of materialize-everything, with a summation order
/// identical to it, so results are bit-identical at any thread count.
void weighted_intensity_sum(
    std::size_t units, std::size_t n,
    const std::function<void(std::size_t, std::vector<double>&)>& compute,
    const std::function<double(std::size_t)>& weight,
    std::vector<double>& acc);

}  // namespace detail

/// In-place 1D FFT of length data.size() (must be a power of two).
/// \p inverse selects the inverse transform (with 1/N normalization).
/// Thin shim over a PlanCache plan; bit-identical to the historic
/// scalar implementation.
void fft_1d(std::vector<Complex>& data, bool inverse);

/// In-place 2D FFT of a row-major nx*ny array (both powers of two).
/// \p inverse selects the inverse transform (with 1/(nx*ny)
/// normalization). Thin shim over Fft2d; bit-identical to the historic
/// implementation.
void fft_2d(std::vector<Complex>& data, std::size_t nx, std::size_t ny,
            bool inverse);

}  // namespace opckit::litho
