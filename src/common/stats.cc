#include "src/common/stats.h"

namespace lithos {

namespace {

// Ordinary least squares over n points (x(i), ys[i]). x is evaluated on
// demand, so a fit over transformed abscissae needs no temporary vector.
template <typename X>
LineFit FitLineOver(size_t size, X x, const std::vector<double>& ys) {
  LineFit fit;
  fit.n = size;
  if (size == 0) {
    return fit;
  }

  double sx = 0, sy = 0;
  for (size_t i = 0; i < size; ++i) {
    sx += x(i);
    sy += ys[i];
  }
  const double n = static_cast<double>(size);
  const double mx = sx / n;
  const double my = sy / n;

  double sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < size; ++i) {
    const double dx = x(i) - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }

  if (sxx <= 0) {
    // All x identical: flat line through the mean.
    fit.slope = 0;
    fit.intercept = my;
    fit.r_squared = syy <= 0 ? 1.0 : 0.0;
    return fit;
  }

  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;

  if (syy <= 0) {
    fit.r_squared = 1.0;
  } else {
    double ss_res = 0;
    for (size_t i = 0; i < size; ++i) {
      const double pred = fit.slope * x(i) + fit.intercept;
      ss_res += (ys[i] - pred) * (ys[i] - pred);
    }
    fit.r_squared = 1.0 - ss_res / syy;
  }
  return fit;
}

}  // namespace

LineFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys) {
  LITHOS_CHECK_EQ(xs.size(), ys.size());
  return FitLineOver(xs.size(), [&xs](size_t i) { return xs[i]; }, ys);
}

ScalingFit FitInverseScaling(const std::vector<double>& tpcs, const std::vector<double>& latency) {
  LITHOS_CHECK_EQ(tpcs.size(), latency.size());
  for (double t : tpcs) {
    LITHOS_CHECK_GT(t, 0);
  }
  const LineFit line =
      FitLineOver(tpcs.size(), [&tpcs](size_t i) { return 1.0 / tpcs[i]; }, latency);
  ScalingFit fit;
  fit.n = line.n;
  fit.r_squared = line.r_squared;
  fit.m = std::max(0.0, line.slope);
  fit.b = std::max(0.0, line.intercept);
  return fit;
}

}  // namespace lithos
