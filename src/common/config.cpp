#include "common/config.hpp"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/log.hpp"

namespace flov {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

long long to_int(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long long r = std::strtoll(v.c_str(), &end, 10);
  FLOV_CHECK(!v.empty() && end && *end == '\0',
             "config key " + key + " is not an int: " + v);
  return r;
}

double to_double(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  FLOV_CHECK(!v.empty() && end && *end == '\0',
             "config key " + key + " is not a double: " + v);
  return r;
}

}  // namespace

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set(const std::string& key, long long value) {
  values_[key] = std::to_string(value);
}

void Config::set(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  values_[key] = os.str();
}

void Config::set(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

void Config::erase(const std::string& key) { values_.erase(key); }

std::optional<std::string> Config::find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_.insert(key);
  return it->second;
}

std::string Config::get_string(const std::string& key) const {
  auto v = find(key);
  FLOV_CHECK(v.has_value(), "missing config key: " + key);
  return *v;
}

std::string Config::get_string(const std::string& key,
                               const std::string& dflt) const {
  return find(key).value_or(dflt);
}

long long Config::get_int(const std::string& key) const {
  return to_int(key, get_string(key));
}

long long Config::get_int(const std::string& key, long long dflt) const {
  return has(key) ? get_int(key) : dflt;
}

double Config::get_double(const std::string& key) const {
  return to_double(key, get_string(key));
}

double Config::get_double(const std::string& key, double dflt) const {
  return has(key) ? get_double(key) : dflt;
}

bool Config::get_bool(const std::string& key) const {
  const std::string v = get_string(key);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  FLOV_CHECK(false, "config key " + key + " is not a bool: " + v);
  return false;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  return has(key) ? get_bool(key) : dflt;
}

std::vector<std::string> Config::get_string_list(
    const std::string& key, std::vector<std::string> dflt) const {
  const auto v = find(key);
  if (!v) return dflt;
  std::vector<std::string> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = v->find(',', pos);
    out.push_back(v->substr(pos, comma - pos));
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

std::vector<long long> Config::get_int_list(const std::string& key,
                                            std::vector<long long> dflt) const {
  if (!has(key)) return dflt;
  std::vector<long long> out;
  for (const auto& e : get_string_list(key, {})) out.push_back(to_int(key, e));
  return out;
}

std::vector<double> Config::get_double_list(const std::string& key,
                                            std::vector<double> dflt) const {
  if (!has(key)) return dflt;
  std::vector<double> out;
  for (const auto& e : get_string_list(key, {})) {
    out.push_back(to_double(key, e));
  }
  return out;
}

void Config::parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos) continue;
    set(trim(tok.substr(0, eq)), trim(tok.substr(eq + 1)));
  }
  reject_removed_keys(*this);
}

void Config::parse_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    FLOV_CHECK(eq != std::string::npos, "config line missing '=': " + line);
    set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (read_.count(k) == 0) out.push_back(k);
  }
  return out;
}

void reject_removed_keys(const Config& cfg) {
  constexpr const char* kMultiProcess =
      "multi-process stepping was removed; use threads= (intra-run domain "
      "workers) instead";
  constexpr const char* kCheckpoint =
      "sweep checkpoint/resume was removed; a run is a pure function of its "
      "config, so re-run the sweep instead";
  constexpr const char* kTiles =
      "2-D tile domains were removed; threads=N steps N row bands";
  constexpr const char* kPlural =
      "flov_sweep_cli sweeps any key given a comma list; use the singular "
      "key (scheme=, pattern=, seed=)";
  const std::pair<const char*, const char*> removed[] = {
      {"procs", kMultiProcess},
      {"noc.step_procs", kMultiProcess},
      {"sim.snapshot_period", kMultiProcess},
      {"runstate", kMultiProcess},
      {"sim.max_recoveries", kMultiProcess},
      {"checkpoint", kCheckpoint},
      {"resume", kCheckpoint},
      {"tiles", kTiles},
      {"noc.step_tiles_x", kTiles},
      {"noc.step_tiles_y", kTiles},
      {"schemes", kPlural},
      {"patterns", kPlural},
      {"seeds", kPlural}};
  for (const auto& [key, why] : removed) {
    if (cfg.has(key)) {
      fatal(__FILE__, __LINE__,
            std::string("config key ") + key + " is no longer accepted: " +
                why);
    }
  }
}

void reject_unread_keys(const Config& cfg) {
  std::string names;
  for (const std::string& k : cfg.unread_keys()) {
    names += (names.empty() ? "" : ", ") + k;
  }
  if (names.empty()) return;
  fatal(__FILE__, __LINE__,
        "config key(s) not used by this program: " + names +
            " (misspelt, or not an option of this binary)");
}

}  // namespace flov
