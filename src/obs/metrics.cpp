#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace skewopt::obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{false};

std::string formatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (std::strtod(buf, nullptr) == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

}  // namespace detail

void setMetricsEnabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void Gauge::add(double d) {
  if (!metricsOn()) return;
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (std::adjacent_find(bounds_.begin(), bounds_.end(),
                         [](double a, double b) { return a >= b; }) !=
      bounds_.end())
    throw std::logic_error(
        "obs: histogram bounds must be strictly ascending");
  for (double b : bounds_)
    if (!std::isfinite(b))
      throw std::logic_error("obs: histogram bounds must be finite");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  if (!metricsOn()) return;
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> defaultMsBuckets() {
  return {0.01,  0.05,   0.1,    0.5,     1.0,    5.0,   10.0,  50.0,
          100.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0};
}

const char* metricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

namespace {

bool validMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

bool validLabelName(const std::string& name) {
  // Like a metric name, but Prometheus label names have no colons.
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

[[noreturn]] void throwKindMismatch(const std::string& name, MetricKind have,
                                    MetricKind want) {
  throw std::logic_error("obs: metric '" + name + "' already registered as " +
                         metricKindName(have) + ", requested " +
                         metricKindName(want));
}

}  // namespace

std::string renderLabels(const LabelSet& labels) {
  std::string out;
  for (const auto& [name, value] : labels) {
    if (!validLabelName(name))
      throw std::logic_error("obs: invalid label name '" + name + "'");
    if (!out.empty()) out += ',';
    out += name;
    out += "=\"";
    for (char c : value) {
      if (c == '\\')
        out += "\\\\";
      else if (c == '"')
        out += "\\\"";
      else if (c == '\n')
        out += "\\n";
      else
        out += c;
    }
    out += '"';
  }
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::findOrCreate(const std::string& name,
                                                      const LabelSet& labels,
                                                      MetricKind kind,
                                                      const std::string& help) {
  if (!validMetricName(name))
    throw std::logic_error("obs: invalid metric name '" + name + "'");
  const std::string rendered = renderLabels(labels);
  const std::string key =
      rendered.empty() ? name : name + "{" + rendered + "}";
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    const auto fam = family_kind_.find(name);
    if (fam != family_kind_.end() && fam->second != kind)
      throwKindMismatch(name, fam->second, kind);
    Entry e;
    e.name = name;
    e.labels = rendered;
    e.kind = kind;
    e.help = help;
    switch (kind) {
      case MetricKind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        break;  // caller constructs (needs the bounds)
    }
    it = metrics_.emplace(key, std::move(e)).first;
    family_kind_.emplace(name, kind);
  } else if (it->second.kind != kind) {
    throwKindMismatch(name, it->second.kind, kind);
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  return counter(name, {}, help);
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const LabelSet& labels,
                                  const std::string& help) {
  support::MutexLock lock(mu_);
  return *findOrCreate(name, labels, MetricKind::kCounter, help).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  return gauge(name, {}, help);
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels,
                              const std::string& help) {
  support::MutexLock lock(mu_);
  return *findOrCreate(name, labels, MetricKind::kGauge, help).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  return histogram(name, {}, std::move(bounds), help);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const LabelSet& labels,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  // Construct first: the bounds validation in the Histogram constructor
  // must not leave a half-registered (histogram-less) entry behind.
  auto fresh = std::make_unique<Histogram>(std::move(bounds));
  support::MutexLock lock(mu_);
  Entry& e = findOrCreate(name, labels, MetricKind::kHistogram, help);
  if (!e.histogram) {
    e.histogram = std::move(fresh);
  } else if (e.histogram->bounds() != fresh->bounds()) {
    throw std::logic_error("obs: histogram '" + name +
                           "' re-registered with different bounds");
  }
  return *e.histogram;
}

Snapshot MetricsRegistry::snapshot() const {
  support::MutexLock lock(mu_);
  Snapshot snap;
  snap.reserve(metrics_.size());
  for (const auto& [key, e] : metrics_) {
    (void)key;
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    s.help = e.help;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.count = e.counter->value();
        break;
      case MetricKind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *e.histogram;
        s.count = h.count();
        s.value = h.sum();
        std::uint64_t cum = 0;
        s.buckets.reserve(h.bounds().size() + 1);
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cum += h.bucket(i);
          s.buckets.emplace_back(h.bounds()[i], cum);
        }
        cum += h.bucket(h.bounds().size());
        s.buckets.emplace_back(std::numeric_limits<double>::infinity(), cum);
        break;
      }
    }
    snap.push_back(std::move(s));
  }
  // Key order is name-then-'{', which interleaves a family's labeled
  // children with longer family names ('_' < '{'); re-sort by
  // (name, labels) so each family is one contiguous block.
  std::sort(snap.begin(), snap.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

void MetricsRegistry::reset() {
  support::MutexLock lock(mu_);
  for (auto& [name, e] : metrics_) {
    (void)name;
    switch (e.kind) {
      case MetricKind::kCounter:
        e.counter->reset();
        break;
      case MetricKind::kGauge:
        e.gauge->reset();
        break;
      case MetricKind::kHistogram:
        e.histogram->reset();
        break;
    }
  }
}

namespace {

using detail::formatDouble;

void appendEscapedHelp(std::string& out, const std::string& help) {
  for (char c : help) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
}

}  // namespace

std::string prometheusText(const Snapshot& snap) {
  std::string out;
  const std::string* last_family = nullptr;
  for (const MetricSample& s : snap) {
    // One HELP/TYPE pair per family: a labeled family's children arrive
    // contiguously (snapshot order is (name, labels)).
    if (!last_family || *last_family != s.name) {
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " ";
        appendEscapedHelp(out, s.help);
        out += "\n";
      }
      out += "# TYPE " + s.name + " " + metricKindName(s.kind) + "\n";
      last_family = &s.name;
    }
    const std::string braced =
        s.labels.empty() ? "" : "{" + s.labels + "}";
    switch (s.kind) {
      case MetricKind::kCounter:
        out += s.name + braced + " " + std::to_string(s.count) + "\n";
        break;
      case MetricKind::kGauge:
        out += s.name + braced + " " + formatDouble(s.value) + "\n";
        break;
      case MetricKind::kHistogram:
        for (const auto& [le, cum] : s.buckets)
          out += s.name + "_bucket{" +
                 (s.labels.empty() ? "" : s.labels + ",") + "le=\"" +
                 formatDouble(le) + "\"} " + std::to_string(cum) + "\n";
        out += s.name + "_sum" + braced + " " + formatDouble(s.value) + "\n";
        out += s.name + "_count" + braced + " " + std::to_string(s.count) +
               "\n";
        break;
    }
  }
  return out;
}

}  // namespace skewopt::obs
