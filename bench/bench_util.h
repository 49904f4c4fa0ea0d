// Shared helpers for the experiment binaries: wall-clock timing, aligned
// table printing, growth-rate estimation, quantiles, JSON results
// stamped with the host and build, loopback ports for in-process fleets,
// and the in-process verdict reference of the daemon benches.
#ifndef OODB_BENCH_BENCH_UTIL_H_
#define OODB_BENCH_BENCH_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "calculus/subsumption.h"
#include "dl/frontend.h"

// bench/CMakeLists.txt defines it for every bench binary.
#ifndef OODB_BUILD_TYPE
#define OODB_BUILD_TYPE "unknown"
#endif

namespace oodb::bench {

// Microseconds spent in `fn` (single shot; callers loop if needed).
inline double TimeUs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// Runs `fn` repeatedly until ~20ms elapsed, returns mean microseconds.
inline double TimeUsAveraged(const std::function<void()>& fn) {
  double total = 0;
  int runs = 0;
  while (total < 20000.0 && runs < 1000) {
    total += TimeUs(fn);
    ++runs;
  }
  return total / runs;
}

// Fixed-width table printing.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("  ");
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::vector<std::string> rule;
    for (size_t w : widths) rule.push_back(std::string(w, '-'));
    print_row(rule);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

// Least-squares slope of log(y) over log(x): the polynomial degree
// estimate for a scaling series. Ignores non-positive points.
inline double LogLogSlope(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (size_t i = 0; i < xs.size() && i < ys.size(); ++i) {
    if (xs[i] <= 0 || ys[i] <= 0) continue;
    double lx = std::log(xs[i]);
    double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

// The q-quantile (0 ≤ q ≤ 1) of `values`, interpolating between the two
// nearest ranks; 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// Interquartile range: Quantile(0.75) − Quantile(0.25).
inline double Iqr(const std::vector<double>& values) {
  return Quantile(values, 0.75) - Quantile(values, 0.25);
}

inline void Section(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

// Minimal machine-readable results: a flat JSON object, written with
// stable key order so the checked-in BENCH_*.json artifacts diff cleanly
// between runs. Values are numbers, booleans, or strings (keys and
// string values here are bench-controlled; only quotes and backslashes
// are escaped).
class JsonWriter {
 public:
  void Add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    fields_.emplace_back(key, buf);
  }
  // One unsigned overload: uint64_t and size_t are the same type on
  // LP64, so a second one would be an illegal redeclaration.
  void Add(const std::string& key, uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void Add(const std::string& key, int v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void Add(const std::string& key, bool v) {
    fields_.emplace_back(key, v ? "true" : "false");
  }
  void Add(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, "\"" + Escape(v) + "\"");
  }

  std::string ToString() const {
    std::string out = "{\n";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += "  \"" + Escape(fields_[i].first) + "\": " + fields_[i].second;
      if (i + 1 < fields_.size()) out += ",";
      out += "\n";
    }
    out += "}\n";
    return out;
  }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string text = ToString();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Stamps a results file with what produced it: the host's CPU count and
// model, the compiler, the CMake build type and whether optimization was
// on. A figure from an unoptimized build is not a baseline.
inline void AddHostStamp(JsonWriter& json) {
  json.Add("host_nproc",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.Add("host_cpu_model", CpuModel());
#if defined(__clang__)
  json.Add("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json.Add("compiler", std::string("gcc ") + __VERSION__);
#else
  json.Add("compiler", std::string("unknown"));
#endif
  json.Add("build_type", std::string(OODB_BUILD_TYPE));
#if defined(__OPTIMIZE__)
  json.Add("optimized", true);
#else
  json.Add("optimized", false);
#endif
}

// Binds an ephemeral loopback port and releases it for a daemon to
// rebind (static membership needs every port known before Start());
// -1 when no port could be had.
inline int GrabPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

// The same parse → translate → check pipeline the daemons run, built
// directly against the library; the daemon benches check every verdict
// they receive against it.
struct Reference : dl::Frontend {
  std::unique_ptr<calculus::SubsumptionChecker> checker;

  static std::unique_ptr<Reference> FromSource(const std::string& source) {
    auto ref = std::make_unique<Reference>();
    if (!ref->Load(source).ok()) return nullptr;
    ref->checker = std::make_unique<calculus::SubsumptionChecker>(*ref->sigma);
    return ref;
  }

  Result<bool> Check(const std::string& c, const std::string& d) {
    auto concept_of = [this](const std::string& name) -> Result<ql::ConceptId> {
      Symbol s = symbols.Find(name);
      const dl::ClassDef* def = s.valid() ? model->FindClass(s) : nullptr;
      if (def == nullptr) return NotFoundError("no class");
      if (!def->is_query) return terms->Primitive(s);
      return translator->QueryConcept(s);
    };
    OODB_ASSIGN_OR_RETURN(ql::ConceptId cc, concept_of(c));
    OODB_ASSIGN_OR_RETURN(ql::ConceptId dd, concept_of(d));
    return checker->Subsumes(cc, dd);
  }
};

}  // namespace oodb::bench

#endif  // OODB_BENCH_BENCH_UTIL_H_
