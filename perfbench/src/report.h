// Small helpers shared by the cwbench subcommands: quantiles over samples,
// a flat JSON object writer for the results run.py reads, and the
// process-level measurements (clock, peak RSS).

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank q-quantile of `values` (0 when empty).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// An ordered flat JSON object: numeric metrics, strings, and a list of
/// error lines. Printed as one line so run.py can parse it.
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    nums_.emplace_back(key, value);
  }
  void Str(const std::string& key, const std::string& value) {
    strs_.emplace_back(key, value);
  }
  void Error(const std::string& message) { errors_.push_back(message); }
  bool has_errors() const { return !errors_.empty(); }

  std::string Render() const {
    std::string out = "{\"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < nums_.size(); ++i) {
      const double v = std::isfinite(nums_[i].second) ? nums_[i].second : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", " : "") + Quote(nums_[i].first) + ": " + buf;
    }
    out += "}, \"info\": {";
    for (size_t i = 0; i < strs_.size(); ++i) {
      out += (i ? ", " : "") + Quote(strs_[i].first) + ": " +
             Quote(strs_[i].second);
    }
    out += "}, \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      out += (i ? ", " : "") + Quote(errors_[i]);
    }
    return out + "]}";
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::vector<std::pair<std::string, double>> nums_;
  std::vector<std::pair<std::string, std::string>> strs_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
