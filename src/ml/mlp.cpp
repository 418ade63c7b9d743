// Feed-forward tanh MLP trained with Adam and early stopping.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/ml.h"

namespace skewopt::ml {

namespace {
double tanhAct(double v) { return std::tanh(v); }
double tanhGrad(double a) { return 1.0 - a * a; }  // in terms of activation
}  // namespace

void MlpRegressor::forward(const double* row,
                           std::vector<std::vector<double>>* acts) const {
  // acts[0] is the input; acts[l+1] the activation of layer l. The last
  // layer is linear. A reused `acts` keeps its storage, so the pass
  // allocates nothing once warm.
  acts->resize(layers_.size() + 1);
  (*acts)[0].assign(row, row + layers_.front().in);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& L = layers_[l];
    const std::vector<double>& cur = (*acts)[l];
    std::vector<double>& next = (*acts)[l + 1];
    next.resize(L.out);
    for (std::size_t o = 0; o < L.out; ++o) {
      double v = L.b[o];
      const double* w = &L.w[o * L.in];
      for (std::size_t i = 0; i < L.in; ++i) v += w[i] * cur[i];
      next[o] = (l + 1 == layers_.size()) ? v : tanhAct(v);
    }
  }
}

void MlpRegressor::fit(const Dataset& all) {
  if (all.size() == 0) throw std::invalid_argument("MlpRegressor: empty data");
  const std::size_t d = all.x.cols();

  // Center/scale the target internally so the loss is well-conditioned.
  y_mean_ = std::accumulate(all.y.begin(), all.y.end(), 0.0) /
            static_cast<double>(all.y.size());
  double var = 0.0;
  for (const double y : all.y) var += (y - y_mean_) * (y - y_mean_);
  y_scale_ = std::sqrt(var / static_cast<double>(all.y.size()));
  if (y_scale_ < 1e-12) y_scale_ = 1.0;

  Dataset train, val;
  splitDataset(all, opts_.val_fraction, opts_.seed, &train, &val);
  if (train.size() == 0) train = all;

  // Layer setup with Xavier-style init.
  geom::Rng rng(opts_.seed);
  layers_.clear();
  std::vector<std::size_t> sizes = {d};
  for (const std::size_t h : opts_.hidden) sizes.push_back(h);
  sizes.push_back(1);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer L;
    L.in = sizes[l];
    L.out = sizes[l + 1];
    L.w.resize(L.in * L.out);
    L.b.assign(L.out, 0.0);
    const double s = std::sqrt(2.0 / static_cast<double>(L.in + L.out));
    for (double& w : L.w) w = rng.normal(0.0, s);
    L.mw.assign(L.w.size(), 0.0);
    L.vw.assign(L.w.size(), 0.0);
    L.mb.assign(L.out, 0.0);
    L.vb.assign(L.out, 0.0);
    layers_.push_back(std::move(L));
  }

  const std::size_t n = train.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  auto valLoss = [&]() {
    if (val.size() == 0) return 0.0;
    std::vector<std::vector<double>> acts;
    double s = 0.0;
    for (std::size_t i = 0; i < val.size(); ++i) {
      forward(val.x.row(i), &acts);
      const double p = acts.back()[0];
      const double t = (val.y[i] - y_mean_) / y_scale_;
      s += (p - t) * (p - t);
    }
    return s / static_cast<double>(val.size());
  };

  std::vector<Layer> best_layers = layers_;
  double best_val = valLoss();
  std::size_t since_best = 0;
  std::size_t step = 0;
  std::vector<std::vector<double>> acts;
  std::vector<std::vector<double>> delta(layers_.size());

  for (std::size_t epoch = 0; epoch < opts_.epochs; ++epoch) {
    // Deterministic shuffle per epoch.
    for (std::size_t i = n; i-- > 1;) std::swap(order[i], order[rng.index(i + 1)]);

    for (std::size_t start = 0; start < n; start += opts_.batch) {
      const std::size_t end = std::min(n, start + opts_.batch);
      // Accumulate gradients over the batch.
      std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        gw[l].assign(layers_[l].w.size(), 0.0);
        gb[l].assign(layers_[l].out, 0.0);
      }
      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t i = order[bi];
        forward(train.x.row(i), &acts);
        const double target = (train.y[i] - y_mean_) / y_scale_;
        const double err = acts.back()[0] - target;
        // Backprop.
        delta.back() = {err};
        for (std::size_t l = layers_.size(); l-- > 0;) {
          const Layer& L = layers_[l];
          const std::vector<double>& in = acts[l];
          const std::vector<double>& dl = delta[l];
          for (std::size_t o = 0; o < L.out; ++o) {
            gb[l][o] += dl[o];
            double* g = &gw[l][o * L.in];
            for (std::size_t ii = 0; ii < L.in; ++ii) g[ii] += dl[o] * in[ii];
          }
          if (l == 0) break;
          std::vector<double>& dprev = delta[l - 1];
          dprev.assign(L.in, 0.0);
          for (std::size_t o = 0; o < L.out; ++o) {
            const double* w = &L.w[o * L.in];
            for (std::size_t ii = 0; ii < L.in; ++ii)
              dprev[ii] += dl[o] * w[ii];
          }
          for (std::size_t ii = 0; ii < L.in; ++ii)
            dprev[ii] *= tanhGrad(acts[l][ii]);
        }
      }
      // Adam step.
      ++step;
      const double bsz = static_cast<double>(end - start);
      const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
      const double bc1 = 1.0 - std::pow(b1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(b2, static_cast<double>(step));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& L = layers_[l];
        for (std::size_t k = 0; k < L.w.size(); ++k) {
          const double g = gw[l][k] / bsz + opts_.l2 * L.w[k];
          L.mw[k] = b1 * L.mw[k] + (1 - b1) * g;
          L.vw[k] = b2 * L.vw[k] + (1 - b2) * g * g;
          L.w[k] -= opts_.learning_rate * (L.mw[k] / bc1) /
                    (std::sqrt(L.vw[k] / bc2) + eps);
        }
        for (std::size_t k = 0; k < L.out; ++k) {
          const double g = gb[l][k] / bsz;
          L.mb[k] = b1 * L.mb[k] + (1 - b1) * g;
          L.vb[k] = b2 * L.vb[k] + (1 - b2) * g * g;
          L.b[k] -= opts_.learning_rate * (L.mb[k] / bc1) /
                    (std::sqrt(L.vb[k] / bc2) + eps);
        }
      }
    }

    if (val.size() > 0) {
      const double vl = valLoss();
      if (vl < best_val - 1e-9) {
        best_val = vl;
        best_layers = layers_;
        since_best = 0;
      } else if (++since_best >= opts_.patience) {
        break;  // early stop
      }
    }
  }
  if (val.size() > 0) layers_ = best_layers;
}

double MlpRegressor::predict(const double* row) const {
  if (layers_.empty()) return y_mean_;
  thread_local std::vector<std::vector<double>> acts;
  forward(row, &acts);
  return acts.back()[0] * y_scale_ + y_mean_;
}

}  // namespace skewopt::ml
