#pragma once

/// The bench binaries' one measurement core: the calibrated timing loop, the
/// array-shape label, and the one JSON writer (the `Report`).
///
/// A report is a list of named sections, each a list of entries.  Within an
/// entry, string and integer fields are configuration (tools/bench_merge.py
/// and tools/bench_compare.py match entries on them) and doubles are
/// measurements.  Ratios between entries are printed by the binaries, never
/// written: every ratio is recomputable from the raw rows the file carries.
/// Header-only because the bench CMake glob builds each bench/*.cpp as its
/// own executable.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/ndarray/shape.hpp"
#include "core/util/timer.hpp"

namespace pyblaz::bench {

/// Best wall time, in seconds, of `trials` single calls of `fn`.
template <typename Fn>
double best_of(int trials, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < trials; ++trial) {
    Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// Best-of-trials seconds per call for each op.  Every op is called once to
/// warm it (allocator, page cache, branch predictors); the repetition count
/// is calibrated on ops[0] until one run takes over a quarter of
/// `trial_seconds`, targeting half; then the ops run in ALTERNATING trials so
/// slow drift (frequency scaling, a noisy co-tenant) lands on all of them
/// instead of biasing whichever ran last.  The best trial per op is kept.
inline std::vector<double> time_ops(
    const std::vector<std::function<void()>>& ops, double trial_seconds,
    int trials) {
  for (const auto& op : ops) op();
  std::int64_t reps = 1;
  for (;;) {
    Timer timer;
    for (std::int64_t i = 0; i < reps; ++i) ops[0]();
    const double elapsed = timer.seconds();
    if (elapsed > trial_seconds / 4 || reps > (1LL << 30)) break;
    reps = elapsed <= 0.0
               ? reps * 16
               : std::max<std::int64_t>(
                     reps + 1, static_cast<std::int64_t>(
                                   static_cast<double>(reps) * trial_seconds /
                                   elapsed * 0.5));
  }

  std::vector<double> best(ops.size(), std::numeric_limits<double>::infinity());
  for (int trial = 0; trial < trials; ++trial) {
    for (std::size_t k = 0; k < ops.size(); ++k) {
      Timer timer;
      for (std::int64_t i = 0; i < reps; ++i) ops[k]();
      best[k] = std::min(best[k], timer.seconds() / static_cast<double>(reps));
    }
  }
  return best;
}

/// time_ops for one op over 3 trials of ~40 ms, the kernel harnesses'
/// setting.
inline double time_op(const std::function<void()>& op) {
  return time_ops({op}, /*trial_seconds=*/0.04, /*trials=*/3)[0];
}

/// "256x256"-style label of an array or block shape.
inline std::string shape_string(const Shape& shape) {
  std::string text;
  for (int axis = 0; axis < shape.ndim(); ++axis) {
    if (axis) text += "x";
    text += std::to_string(shape[axis]);
  }
  return text;
}

/// One JSON field.  Strings and integers are configuration; doubles are
/// measurements.
struct Field {
  std::string key;
  std::variant<std::string, std::int64_t, double> value;

  Field(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  Field(std::string k, const char* v) : key(std::move(k)), value(std::string(v)) {}
  template <std::integral T>
  Field(std::string k, T v)
      : key(std::move(k)), value(static_cast<std::int64_t>(v)) {}
  Field(std::string k, double v) : key(std::move(k)), value(v) {}
};

using Entry = std::vector<Field>;

inline const Field* field_of(const Entry& entry, const std::string& key) {
  for (const Field& f : entry)
    if (f.key == key) return &f;
  return nullptr;
}

/// A numeric field as a double (integers convert); nullopt when absent or a
/// string.
inline std::optional<double> number(const Entry& entry,
                                    const std::string& key) {
  const Field* f = field_of(entry, key);
  if (!f) return std::nullopt;
  if (const auto* d = std::get_if<double>(&f->value)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&f->value))
    return static_cast<double>(*i);
  return std::nullopt;
}

/// A field as printed: a string's value (empty stays empty), a number as
/// key=value.
inline std::string describe(const Field& f) {
  if (const auto* s = std::get_if<std::string>(&f.value)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&f.value))
    return f.key + "=" + std::to_string(*i);
  char text[64];
  std::snprintf(text, sizeof text, "%.4g", std::get<double>(f.value));
  return f.key + "=" + text;
}

/// Sections of entries, printed as they are recorded and written as one
/// `pyblaz-bench-kernels-v1` JSON file.  Sections appear in the order they
/// were first recorded; a section never recorded is not written.
class Report {
 public:
  /// Appends `entry` to `section` and prints it as one line.
  void record(const std::string& section, Entry entry) {
    std::string line;
    for (const Field& f : entry)
      if (const std::string text = describe(f); !text.empty())
        line += text + " ";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    section_entries(section).push_back(std::move(entry));
  }

  /// Times `op` with time_op and records `config` plus its seconds_per_call.
  void time(const std::string& section, Entry config,
            const std::function<void()>& op) {
    config.emplace_back("seconds_per_call", time_op(op));
    record(section, std::move(config));
  }

  /// The first entry of `section` that carries every field of `query` with
  /// an equal value, or nullptr.
  const Entry* find(const std::string& section, const Entry& query) const {
    for (const Entry& entry : entries(section)) {
      const bool match = std::all_of(query.begin(), query.end(),
                                     [&](const Field& q) {
                                       const Field* f = field_of(entry, q.key);
                                       return f && f->value == q.value;
                                     });
      if (match) return &entry;
    }
    return nullptr;
  }

  /// `field` of the entry matching `num` over `field` of the entry matching
  /// `den`; nullopt when either is missing or the denominator is not > 0.
  std::optional<double> ratio(const std::string& section, const Entry& num,
                              const Entry& den,
                              const std::string& field =
                                  "seconds_per_call") const {
    const Entry* n = find(section, num);
    const Entry* d = find(section, den);
    if (!n || !d) return std::nullopt;
    const auto top = number(*n, field);
    const auto bottom = number(*d, field);
    if (!top || !bottom || *bottom <= 0.0) return std::nullopt;
    return *top / *bottom;
  }

  const std::vector<Entry>& entries(const std::string& section) const {
    static const std::vector<Entry> kNone;
    for (const auto& [name, list] : sections_)
      if (name == section) return list;
    return kNone;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"schema\": \"pyblaz-bench-kernels-v1\"");
    for (const auto& [name, list] : sections_) {
      std::fprintf(f, ",\n  \"%s\": [", name.c_str());
      for (std::size_t i = 0; i < list.size(); ++i) {
        std::fprintf(f, "%s\n    {", i ? "," : "");
        for (std::size_t j = 0; j < list[i].size(); ++j) {
          const Field& field = list[i][j];
          std::fprintf(f, "%s\"%s\": ", j ? ", " : "", field.key.c_str());
          if (const auto* s = std::get_if<std::string>(&field.value))
            std::fprintf(f, "\"%s\"", s->c_str());
          else if (const auto* n = std::get_if<std::int64_t>(&field.value))
            std::fprintf(f, "%lld", static_cast<long long>(*n));
          else
            std::fprintf(f, "%.6e", std::get<double>(field.value));
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "\n  ]");
    }
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Entry>& section_entries(const std::string& section) {
    for (auto& [name, list] : sections_)
      if (name == section) return list;
    return sections_.emplace_back(section, std::vector<Entry>{}).second;
  }

  std::vector<std::pair<std::string, std::vector<Entry>>> sections_;
};

/// One printed family of ratios: for every entry of `section` whose `key` is
/// `den`, the entry agreeing with it on the `same` fields but with `key` =
/// `num`, divided field-by-field (`field`) by it.  A ratio outside [lo, hi]
/// prints `warning` to stderr once per family.
struct Ratios {
  std::string title;
  std::string section;
  std::string key;
  std::string num;
  std::string den;
  std::string field = "seconds_per_call";
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  std::string warning = {};
  std::vector<std::string> same = {"name", "kind", "shape"};
};

inline void print_ratios(const Report& report,
                         const std::vector<Ratios>& families) {
  for (const Ratios& family : families) {
    std::printf("\n%s:\n", family.title.c_str());
    bool out_of_bounds = false;
    for (const Entry& entry : report.entries(family.section)) {
      const Field* role = field_of(entry, family.key);
      const auto* value = role ? std::get_if<std::string>(&role->value) : nullptr;
      if (!value || *value != family.den) continue;
      Entry num{{family.key, family.num}};
      Entry den{{family.key, family.den}};
      std::string label;
      for (const std::string& key : family.same) {
        const Field* f = field_of(entry, key);
        if (!f) continue;
        num.push_back(*f);
        den.push_back(*f);
        if (const std::string text = describe(*f); !text.empty())
          label += text + " ";
      }
      const auto r = report.ratio(family.section, num, den, family.field);
      if (!r) continue;
      std::printf("  %-40s %9.4fx\n", label.c_str(), *r);
      out_of_bounds |= *r < family.lo || *r > family.hi;
    }
    if (out_of_bounds && !family.warning.empty())
      std::fprintf(stderr, "warning: %s — rerun on a quiet machine before "
                   "trusting this\n", family.warning.c_str());
  }
}

}  // namespace pyblaz::bench
