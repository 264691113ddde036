#include "refblas/level1.hpp"

#include <algorithm>

namespace fblas::ref {

template <typename T>
Givens<T> rotg(T& a, T& b) {
  // netlib srotg/drotg.
  const T absa = std::abs(a), absb = std::abs(b);
  const T roe = absa > absb ? a : b;
  const T scale = absa + absb;
  Givens<T> g{};
  if (scale == T(0)) {
    g.c = T(1);
    g.s = T(0);
    a = T(0);
    b = T(0);
    return g;
  }
  const T an = a / scale, bn = b / scale;
  T r = scale * std::sqrt(an * an + bn * bn);
  r = std::copysign(r, roe);
  g.c = a / r;
  g.s = b / r;
  T z;
  if (absa > absb) {
    z = g.s;
  } else if (g.c != T(0)) {
    z = T(1) / g.c;
  } else {
    z = T(1);
  }
  a = r;
  b = z;
  return g;
}

template <typename T>
RotmParam<T> rotmg(T& d1, T& d2, T& x1, T y1) {
  // netlib srotmg/drotmg, including the GAM rescaling loops.
  constexpr T kGam = T(4096);
  constexpr T kGamSq = kGam * kGam;
  constexpr T kRGamSq = T(1) / (kGam * kGam);
  RotmParam<T> p{T(-2), T(0), T(0), T(0), T(0)};
  T h11 = 0, h12 = 0, h21 = 0, h22 = 0;
  T flag;
  if (d1 < T(0)) {
    flag = T(-1);
    d1 = d2 = x1 = T(0);
  } else {
    const T p2 = d2 * y1;
    if (p2 == T(0)) {
      p.flag = T(-2);
      return p;
    }
    const T p1 = d1 * x1;
    const T q2 = p2 * y1;
    const T q1 = p1 * x1;
    if (std::abs(q1) > std::abs(q2)) {
      h21 = -y1 / x1;
      h12 = p2 / p1;
      const T u = T(1) - h12 * h21;
      if (u > T(0)) {
        flag = T(0);
        d1 /= u;
        d2 /= u;
        x1 *= u;
      } else {
        // Rounding made u non-positive: fall back to canceling everything.
        flag = T(-1);
        h11 = h12 = h21 = h22 = T(0);
        d1 = d2 = x1 = T(0);
      }
    } else {
      if (q2 < T(0)) {
        flag = T(-1);
        h11 = h12 = h21 = h22 = T(0);
        d1 = d2 = x1 = T(0);
      } else {
        flag = T(1);
        h11 = p1 / p2;
        h22 = x1 / y1;
        const T u = T(1) + h11 * h22;
        const T tmp = d2 / u;
        d2 = d1 / u;
        d1 = tmp;
        x1 = y1 * u;
      }
    }
    // Rescale d1.
    if (d1 != T(0)) {
      while (d1 <= kRGamSq || d1 >= kGamSq) {
        if (flag == T(0)) {
          h11 = h22 = T(1);
          flag = T(-1);
        } else {
          h21 = T(-1);
          h12 = T(1);
          flag = T(-1);
        }
        if (d1 <= kRGamSq) {
          d1 *= kGamSq;
          x1 /= kGam;
          h11 /= kGam;
          h12 /= kGam;
        } else {
          d1 /= kGamSq;
          x1 *= kGam;
          h11 *= kGam;
          h12 *= kGam;
        }
      }
    }
    // Rescale d2.
    if (d2 != T(0)) {
      while (std::abs(d2) <= kRGamSq || std::abs(d2) >= kGamSq) {
        if (flag == T(0)) {
          h11 = h22 = T(1);
          flag = T(-1);
        } else {
          h21 = T(-1);
          h12 = T(1);
          flag = T(-1);
        }
        if (std::abs(d2) <= kRGamSq) {
          d2 *= kGamSq;
          h21 /= kGam;
          h22 /= kGam;
        } else {
          d2 /= kGamSq;
          h21 *= kGam;
          h22 *= kGam;
        }
      }
    }
  }
  p.flag = flag;
  p.h11 = h11;
  p.h21 = h21;
  p.h12 = h12;
  p.h22 = h22;
  return p;
}

template <typename T>
void rot(VectorView<T> x, VectorView<T> y, T c, T s) {
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const T xi = x[i], yi = y[i];
    x[i] = c * xi + s * yi;
    y[i] = c * yi - s * xi;
  }
}

template <typename T>
void rotm(VectorView<T> x, VectorView<T> y, const RotmParam<T>& p) {
  if (p.flag == T(-2)) return;
  const auto [h11, h12, h21, h22] = p.matrix();
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const T xi = x[i], yi = y[i];
    x[i] = h11 * xi + h12 * yi;
    y[i] = h21 * xi + h22 * yi;
  }
}

template <typename T>
void swap(VectorView<T> x, VectorView<T> y) {
  for (std::int64_t i = 0; i < x.size(); ++i) std::swap(x[i], y[i]);
}

template <typename T>
void scal(T alpha, VectorView<T> x) {
  for (std::int64_t i = 0; i < x.size(); ++i) x[i] *= alpha;
}

template <typename T>
void copy(VectorView<const T> x, VectorView<T> y) {
  for (std::int64_t i = 0; i < x.size(); ++i) y[i] = x[i];
}

template <typename T>
void axpy(T alpha, VectorView<const T> x, VectorView<T> y) {
  for (std::int64_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

template <typename T>
T dot(VectorView<const T> x, VectorView<const T> y) {
  T acc = T(0);
  for (std::int64_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

float sdsdot(float sb, VectorView<const float> x, VectorView<const float> y) {
  double acc = static_cast<double>(sb);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return static_cast<float>(acc);
}

template <typename T>
T nrm2(VectorView<const T> x) {
  // Scaled sum-of-squares (netlib-style) to avoid overflow/underflow.
  T scale = T(0), ssq = T(1);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (x[i] == T(0)) continue;
    const T absxi = std::abs(x[i]);
    if (scale < absxi) {
      const T r = scale / absxi;
      ssq = T(1) + ssq * r * r;
      scale = absxi;
    } else {
      const T r = absxi / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

template <typename T>
T asum(VectorView<const T> x) {
  T acc = T(0);
  for (std::int64_t i = 0; i < x.size(); ++i) acc += std::abs(x[i]);
  return acc;
}

template <typename T>
std::int64_t iamax(VectorView<const T> x) {
  if (x.size() == 0) return -1;
  std::int64_t best = 0;
  T best_abs = std::abs(x[0]);
  for (std::int64_t i = 1; i < x.size(); ++i) {
    const T a = std::abs(x[i]);
    if (a > best_abs) {
      best_abs = a;
      best = i;
    }
  }
  return best;
}

// Explicit instantiations.
#define FBLAS_REF_L1_INSTANTIATE(T)                                     \
  template Givens<T> rotg<T>(T&, T&);                                   \
  template RotmParam<T> rotmg<T>(T&, T&, T&, T);                        \
  template void rot<T>(VectorView<T>, VectorView<T>, T, T);             \
  template void rotm<T>(VectorView<T>, VectorView<T>,                   \
                        const RotmParam<T>&);                           \
  template void swap<T>(VectorView<T>, VectorView<T>);                  \
  template void scal<T>(T, VectorView<T>);                              \
  template void copy<T>(VectorView<const T>, VectorView<T>);            \
  template void axpy<T>(T, VectorView<const T>, VectorView<T>);         \
  template T dot<T>(VectorView<const T>, VectorView<const T>);          \
  template T nrm2<T>(VectorView<const T>);                              \
  template T asum<T>(VectorView<const T>);                              \
  template std::int64_t iamax<T>(VectorView<const T>);

FBLAS_REF_L1_INSTANTIATE(float)
FBLAS_REF_L1_INSTANTIATE(double)
#undef FBLAS_REF_L1_INSTANTIATE

}  // namespace fblas::ref
