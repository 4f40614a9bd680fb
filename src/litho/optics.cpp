#include "litho/optics.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "litho/fft.h"
#include "util/check.h"

namespace opckit::litho {

double MaskModel::background_amplitude() const {
  if (type == MaskType::kBinary) return 0.0;
  OPCKIT_CHECK(background_transmission >= 0.0 &&
               background_transmission < 1.0);
  return -std::sqrt(background_transmission);
}

std::vector<SourcePoint> sample_source(const OpticalSystem& sys) {
  const SourceSpec& src = sys.source;
  OPCKIT_CHECK(src.grid >= 1);
  const bool dipole = src.shape == SourceShape::kDipoleX ||
                      src.shape == SourceShape::kDipoleY;
  const double r_out =
      dipole ? src.pole_center + src.pole_radius : src.sigma_outer;
  OPCKIT_CHECK(r_out > 0.0 && r_out <= 1.0);
  const double r_in =
      src.shape == SourceShape::kAnnular ? src.sigma_inner : 0.0;
  OPCKIT_CHECK(r_in >= 0.0 && r_in < r_out);
  const double f_na = sys.na / sys.wavelength_nm;  // pupil radius in 1/nm

  const auto inside = [&](double u, double v) {
    switch (src.shape) {
      case SourceShape::kCircular:
        return std::hypot(u, v) <= r_out;
      case SourceShape::kAnnular: {
        const double r = std::hypot(u, v);
        return r <= r_out && r >= r_in;
      }
      case SourceShape::kDipoleX:
        return std::hypot(u - src.pole_center, v) <= src.pole_radius ||
               std::hypot(u + src.pole_center, v) <= src.pole_radius;
      case SourceShape::kDipoleY:
        return std::hypot(u, v - src.pole_center) <= src.pole_radius ||
               std::hypot(u, v + src.pole_center) <= src.pole_radius;
    }
    return false;
  };

  std::vector<SourcePoint> pts;
  const int n = src.grid;
  // Dipoles need a finer raster than disc sources to land enough points
  // inside the small poles; scale the raster so the pole diameter spans
  // at least ~3 cells.
  // std::ceil, not a truncating cast: 3·r_out/radius = 10.2 must mean
  // 11 cells, or small poles land under the 3-cells-across guarantee.
  const int eff_n =
      dipole ? std::max<int>(n, static_cast<int>(std::ceil(
                                    3.0 * r_out / src.pole_radius))) : n;
  for (int j = 0; j < eff_n; ++j) {
    for (int i = 0; i < eff_n; ++i) {
      // Cell centers of an eff_n x eff_n raster over [-r_out, r_out]^2.
      const double u =
          eff_n == 1 ? 0.0
                     : -r_out + (2.0 * r_out) *
                                    (static_cast<double>(i) + 0.5) /
                                    static_cast<double>(eff_n);
      const double v =
          eff_n == 1 ? 0.0
                     : -r_out + (2.0 * r_out) *
                                    (static_cast<double>(j) + 0.5) /
                                    static_cast<double>(eff_n);
      if (!inside(u, v)) continue;
      pts.push_back({u * f_na, v * f_na, 1.0});
    }
  }
  OPCKIT_CHECK_MSG(!pts.empty(), "source sampling produced no points");
  const double w = 1.0 / static_cast<double>(pts.size());
  for (auto& p : pts) p.weight = w;
  return pts;
}

Complex pupil_transmission(const OpticalSystem& sys, double fx, double fy,
                           double defocus_nm) {
  const double f_cut = sys.na / sys.wavelength_nm;
  const double f_cut2 = f_cut * f_cut;
  const double f2 = fx * fx + fy * fy;
  if (f2 > f_cut2) return Complex{0.0, 0.0};  // outside pupil
  const double defocus_phase_scale =
      -std::numbers::pi * sys.wavelength_nm * defocus_nm;
  double phase = defocus_phase_scale * f2;
  const Aberrations& ab = sys.aberrations;
  if (ab.any()) {
    // Normalized pupil coordinates: u = cosθ·ρ, v = sinθ·ρ.
    const double wf_to_phase = 2.0 * std::numbers::pi / sys.wavelength_nm;
    const double u = fx / f_cut;
    const double v = fy / f_cut;
    const double rho2 = u * u + v * v;
    const double coma_radial = 3.0 * rho2 - 2.0;  // (3ρ³-2ρ)/ρ
    const double wavefront_nm =
        ab.coma_x_nm * coma_radial * u +
        ab.coma_y_nm * coma_radial * v +
        ab.astig_nm * (u * u - v * v);  // ρ²cos2θ
    phase += wf_to_phase * wavefront_nm;
  }
  return Complex{std::cos(phase), std::sin(phase)};
}

AbbeImager::AbbeImager(const OpticalSystem& sys, const Frame& frame)
    : sys_(sys),
      frame_(frame),
      fft2_(frame.nx, frame.ny),
      source_(sample_source(sys)) {
  OPCKIT_CHECK_MSG(is_pow2(frame.nx) && is_pow2(frame.ny),
                   "frame dims must be powers of two, got "
                       << frame.nx << 'x' << frame.ny);
  freq_x_.resize(frame.nx);
  freq_y_.resize(frame.ny);
  for (std::size_t k = 0; k < frame.nx; ++k) {
    freq_x_[k] = fft_freq(k, frame.nx) / frame.pixel_nm;
  }
  for (std::size_t k = 0; k < frame.ny; ++k) {
    freq_y_[k] = fft_freq(k, frame.ny) / frame.pixel_nm;
  }
}

Image AbbeImager::aerial_image(const Image& mask, double defocus_nm,
                               const MaskModel& mask_model) const {
  OPCKIT_CHECK(mask.frame() == frame_);
  const std::size_t nx = frame_.nx, ny = frame_.ny;
  const std::size_t n = nx * ny;

  // Mask spectrum (computed once, shared read-only by all source points).
  // Coverage c -> complex transmission c + (1 - c) * t_bg; the
  // transmission is real for both mask technologies, so the spectrum
  // comes from the planned r2c forward.
  const double t_bg = mask_model.background_amplitude();
  std::vector<double> trans(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = mask.values()[i];
    trans[i] = c + (1.0 - c) * t_bg;
  }
  std::vector<Complex> spectrum;
  fft2_.forward_real(trans, spectrum);

  // Per-source shifted-pupil supports and transmissions. The support
  // (|f + f_s| inside the NA cutoff) depends only on geometry, not the
  // mask, and collecting it up front lets each coherent image run as a
  // SparseInverseBatch: rows with no pupil bins are skipped exactly,
  // and |·|² plus the inverse normalization are fused into the column
  // epilogue.
  std::vector<std::vector<std::uint32_t>> supports(source_.size());
  std::vector<std::vector<Complex>> pupils(source_.size());
  for (std::size_t si = 0; si < source_.size(); ++si) {
    const SourcePoint& sp = source_[si];
    for (std::size_t ky = 0; ky < ny; ++ky) {
      const double fy = freq_y_[ky] + sp.fy;
      for (std::size_t kx = 0; kx < nx; ++kx) {
        const double fx = freq_x_[kx] + sp.fx;
        const Complex pupil = pupil_transmission(sys_, fx, fy, defocus_nm);
        if (pupil == Complex{0.0, 0.0}) continue;  // outside pupil
        supports[si].push_back(static_cast<std::uint32_t>(ky * nx + kx));
        pupils[si].push_back(pupil);
      }
    }
  }

  // Every source's field lives inside the union of the supports, so
  // the sum runs on the union's band-limited grid: each coherent image
  // is a batch over its own support remapped onto that grid, reduced
  // in fixed order (deterministic at any thread count, peak memory
  // bounded by the chunk size) and interpolated to the frame once.
  std::vector<std::uint32_t> all;
  for (const auto& sup : supports) {
    all.insert(all.end(), sup.begin(), sup.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const BandLimitedGrid grid(fft2_, all);
  Image intensity(frame_);
  grid.intensity_sum(
      spectrum.data(), source_.size(),
      [&](std::size_t si, const Complex* grid_spectrum,
          std::vector<double>& out) {
        const SparseInverseBatch batch(grid.grid(), grid.remap(supports[si]));
        batch.inverse_mag2(grid_spectrum, pupils[si], out);
      },
      [&](std::size_t si) { return source_[si].weight; },
      intensity.values());
  return intensity;
}

}  // namespace opckit::litho
