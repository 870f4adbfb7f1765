// Generic typed key-value configuration store.
//
// Experiments are parameterized by flat key=value pairs (BookSim style).
// Values are stored as strings and converted on access; type errors and
// keys nothing read (reject_unread_keys) fail loudly. `parse_args` accepts
// "key=value" tokens so every bench/example binary can be overridden from
// the command line.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace flov {

class Config {
 public:
  Config() = default;

  /// Sets (or overwrites) a key.
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, long long value);
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);

  /// Whether `key` is set (does not count as reading it).
  bool has(const std::string& key) const;
  void erase(const std::string& key);

  /// Typed getters; the non-defaulted forms abort on a missing key.
  std::string get_string(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& dflt) const;
  long long get_int(const std::string& key) const;
  long long get_int(const std::string& key, long long dflt) const;
  double get_double(const std::string& key) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// Comma-separated list forms ("inj=0.02,0.08"): every element passes the
  /// same typed check as the scalar getter; a missing key yields `dflt`.
  std::vector<std::string> get_string_list(
      const std::string& key, std::vector<std::string> dflt) const;
  std::vector<long long> get_int_list(const std::string& key,
                                      std::vector<long long> dflt) const;
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> dflt) const;

  /// Parses "key=value" tokens (argv style); ignores tokens without '='.
  /// Fails loudly on a removed key (reject_removed_keys).
  void parse_args(int argc, char** argv);

  /// Parses a multi-line "key = value" text block ('#' starts a comment).
  void parse_text(const std::string& text);

  /// All keys in sorted order (for reproducibility logging).
  std::vector<std::string> keys() const;

  /// Renders "key = value" lines sorted by key.
  std::string to_string() const;

  /// Set keys that no getter has read yet, sorted.
  std::vector<std::string> unread_keys() const;

 private:
  /// The one lookup behind every getter; marks `key` read.
  std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  /// Keys a getter has read. The getters are const yet record here, so a
  /// Config must not be read from two threads at once.
  mutable std::set<std::string> read_;
};

/// flov::fatal naming the key when `cfg` sets a key whose feature was
/// removed, with what to do instead of the generic unread-key message:
/// multi-process stepping (procs=, noc.step_procs, sim.snapshot_period,
/// runstate=, sim.max_recoveries; use threads=), sweep checkpoint/resume
/// (checkpoint=, resume=; re-run the sweep), 2-D tile domains (tiles=,
/// noc.step_tiles_x, noc.step_tiles_y; threads=N steps N row bands) and
/// the sweep's plural axis keys (schemes=, patterns=, seeds=; any key
/// takes a comma list).
void reject_removed_keys(const Config& cfg);

/// flov::fatal naming every key of `cfg` that nothing read (noc.widht=4).
/// Every binary calls it once, after reading all of its inputs and before
/// writing any output.
void reject_unread_keys(const Config& cfg);

}  // namespace flov
