// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary prints one table or figure of the paper's evaluation section
// (the header comment of each bench_*.cpp names it). Times are *virtual
// seconds* from the discrete-event machine models in src/fs/sim —
// deterministic run-to-run — so the tables are reproducible on any host;
// bandwidth rows use decimal MB/s like the paper.
#pragma once

#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/narrow.h"
#include "common/options.h"
#include "common/units.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion::bench {

inline par::EngineConfig engine_config_for(
    const fs::SimConfig& machine, std::size_t stack_bytes = 48 * 1024) {
  par::EngineConfig config;
  config.stack_bytes = stack_bytes;
  config.network = machine.network;
  return config;
}

// Run `body` over `ntasks` tasks and return the phase's virtual makespan.
template <typename Fn>
double timed_run(par::Engine& engine, int ntasks, Fn&& body) {
  const double t0 = engine.epoch();
  engine.run(ntasks, std::forward<Fn>(body));
  return engine.epoch() - t0;
}

// When a benchmark shrinks task counts by --scale, machine features that
// are granular in tasks must shrink with them, or a scaled run engages a
// different fraction of the machine than the full configuration would.
inline fs::SimConfig scaled_machine(fs::SimConfig machine, double scale) {
  if (machine.tasks_per_ion > 0) {
    machine.tasks_per_ion =
        std::max(1, checked_trunc<int>(machine.tasks_per_ion * scale));
  }
  return machine;
}

inline double mbps(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / seconds / 1.0e6 : 0.0;
}

// Host wall-clock stopwatch for per-point `wall_s` columns: unlike every
// other number in a report this measures the METAL, not the model — it is
// what the CI wall-time budget gates on.
class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// Peak resident set size of this process (getrusage; kernel reports KiB).
inline std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

inline void print_header(const char* title, const char* paper_says) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n", paper_says);
}

// Task counts in the paper's binary style ("64Ki"); see common/units.
inline std::string human_tasks(int n) {
  return format_tasks(static_cast<std::uint64_t>(n));
}

// ---------------------------------------------------------------------------
// Machine-readable results: every benchmark records its table rows in a
// Report alongside the printed text and emits them as BENCH_<name>.json when
// invoked with --json[=<path>]. CI's bench-smoke job runs each binary at a
// reduced --scale and gates on this output (see scripts/check_bench_json.py
// for the consumed schema).
// ---------------------------------------------------------------------------

// One table cell: a finite number or a string. Non-finite numbers (a
// division by a zero timing at extreme --scale) serialize as null.
class Cell {
 public:
  Cell(double v) : num_(v) {}              // NOLINT(google-explicit-constructor)
  Cell(int v) : num_(v) {}                 // NOLINT(google-explicit-constructor)
  Cell(std::uint64_t v)                    // NOLINT(google-explicit-constructor)
      : num_(static_cast<double>(v)) {}
  Cell(const char* s) : str_(s), is_str_(true) {}  // NOLINT
  Cell(std::string s)                      // NOLINT(google-explicit-constructor)
      : str_(std::move(s)), is_str_(true) {}

  void append_json(std::string& out) const {
    if (is_str_) {
      out += '"';
      for (const char c : str_) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char esc[8];
              std::snprintf(esc, sizeof(esc), "\\u%04x", c);
              out += esc;
            } else {
              out += c;
            }
        }
      }
      out += '"';
      return;
    }
    if (!std::isfinite(num_)) {
      out += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", num_);
    out += buf;
  }

 private:
  double num_ = 0.0;
  std::string str_;
  bool is_str_ = false;
};

struct Table {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;

  void row(std::vector<Cell> cells) {
    SION_CHECK(cells.size() == columns.size())
        << "table '" << name << "' row has " << cells.size() << " cells for "
        << columns.size() << " columns";
    rows.push_back(std::move(cells));
  }
};

class Report {
 public:
  Report(std::string name, std::string title)
      : name_(std::move(name)), title_(std::move(title)) {}

  Table& table(std::string table_name, std::vector<std::string> columns) {
    tables_.push_back(Table{std::move(table_name), std::move(columns), {}});
    return tables_.back();
  }

  void set_param(const std::string& key, Cell value) {
    params_.emplace_back(key, std::move(value));
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\n  \"bench\": ";
    Cell(name_).append_json(out);
    out += ",\n  \"title\": ";
    Cell(title_).append_json(out);
    // Host-side metrics: wall-clock from Report construction to
    // serialization plus peak RSS. These are the only non-virtual numbers
    // in the file; CI's bench-smoke job budgets on wall_seconds so host
    // performance regressions fail the build (scripts/check_bench_json.py
    // --max-wall-seconds).
    out += ",\n  \"host\": {\"wall_seconds\": ";
    Cell(wall_.seconds()).append_json(out);
    out += ", \"peak_rss_bytes\": ";
    Cell(peak_rss_bytes()).append_json(out);
    out += "},\n  \"time_unit\": \"virtual_seconds\",\n  \"params\": {";
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (i != 0) out += ", ";
      Cell(params_[i].first).append_json(out);
      out += ": ";
      params_[i].second.append_json(out);
    }
    out += "},\n  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const Table& table = tables_[t];
      out += t == 0 ? "\n" : ",\n";
      out += "    {\"name\": ";
      Cell(table.name).append_json(out);
      out += ", \"columns\": [";
      for (std::size_t c = 0; c < table.columns.size(); ++c) {
        if (c != 0) out += ", ";
        Cell(table.columns[c]).append_json(out);
      }
      out += "],\n     \"rows\": [";
      for (std::size_t r = 0; r < table.rows.size(); ++r) {
        out += r == 0 ? "\n" : ",\n";
        out += "       [";
        const auto& row = table.rows[r];
        for (std::size_t c = 0; c < row.size(); ++c) {
          if (c != 0) out += ", ";
          row[c].append_json(out);
        }
        out += "]";
      }
      out += "\n     ]}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  // Honour --json[=<path>]; call at the end of main. Returns 0, or 1 when
  // the report cannot be fully written (so the binary exits nonzero under
  // CI instead of silently dropping the trajectory file). Failures say WHY
  // (errno) and never leave a half-written file behind for the schema gate
  // to mistake for a truncated-but-present report.
  [[nodiscard]] int write_if_requested(const Options& opts) const {
    if (!opts.has("json")) return 0;
    std::string path = opts.get_string("json");
    if (path.empty() || path == "true") path = "BENCH_" + name_ + ".json";
    const std::string json = to_json();
    errno = 0;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "error: cannot write benchmark report %s: %s\n",
                   path.c_str(), std::strerror(errno));
      return 1;
    }
    const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
    const int write_errno = errno;
    const int close_rc = std::fclose(f);
    if (n != json.size() || close_rc != 0) {
      std::fprintf(stderr,
                   "error: short write of benchmark report %s (%zu of %zu "
                   "bytes): %s\n",
                   path.c_str(), n, json.size(),
                   std::strerror(n != json.size() ? write_errno : errno));
      std::remove(path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

 private:
  std::string name_;
  std::string title_;
  WallTimer wall_;  // started at Report construction
  std::vector<std::pair<std::string, Cell>> params_;
  std::deque<Table> tables_;  // deque: table() hands out stable references
};

}  // namespace sion::bench
