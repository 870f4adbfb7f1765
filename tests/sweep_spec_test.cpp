// The sweep front end's contract (flov_sweep_cli, experiments/*.args): a
// comma list makes a key an axis, the points are the axes' cross product in
// a fixed order, each point is exactly the run its own config describes,
// and a spec file is a list of such blocks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "telemetry/json.hpp"

namespace flov {
namespace {

Config parse(const std::string& text) {
  Config c;
  c.parse_text(text);
  return c;
}

std::string registry_json(const RunResult& r) {
  telemetry::JsonWriter w;
  r.metrics->write_json(w);
  return w.take();
}

constexpr const char* kWindow =
    "noc.width = 4\nnoc.height = 4\nwarmup = 200\ncycles = 600\n"
    "scheme = gflov\ngated = 0.3\ninj = 0.05\n";

// noc.buffer_depth=2,4 is two points; each one's registry equals that of
// the run from_config builds from the same keys with one depth.
TEST(SweepSpec, ListKeyIsAnAxisOfRunsFromTheSameKeys) {
  const std::vector<SweepPoint> points =
      expand_sweep(parse(std::string(kWindow) + "noc.buffer_depth = 2,4\n"),
                   Config{});
  ASSERT_EQ(points.size(), 2u);
  std::vector<SyntheticExperimentConfig> experiments;
  for (const SweepPoint& p : points) experiments.push_back(p.experiment);
  const std::vector<RunResult> swept = run_sweep(experiments);
  for (int i = 0; i < 2; ++i) {
    const std::string depth = i == 0 ? "2" : "4";
    SCOPED_TRACE(depth);
    EXPECT_EQ(points[i].config.get_string("noc.buffer_depth"), depth);
    EXPECT_EQ(points[i].extra_axes,
              std::vector<std::string>{"noc.buffer_depth"});
    const Config one =
        parse(std::string(kWindow) + "noc.buffer_depth = " + depth + "\n");
    const RunResult single =
        run_synthetic(SyntheticExperimentConfig::from_config(one, {}));
    EXPECT_EQ(registry_json(swept[i]), registry_json(single));
  }
}

// changes= and telemetry.trace= are list-valued: one value, never an axis.
TEST(SweepSpec, ListValuedKeysAreNotAxes) {
  const std::vector<SweepPoint> points = expand_sweep(
      parse("changes = 100,200\ntelemetry.trace = flit,power\n"), Config{});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].experiment.gating_changes,
            (std::vector<Cycle>{100, 200}));
  EXPECT_TRUE(points[0].extra_axes.empty());
}

// scheme, pattern, inj, gated, seed come first, then the other axes by
// key; the last axis varies fastest. `defaults` fill unset keys, and the
// scheme is written back by name.
TEST(SweepSpec, AxisOrderAndDefaults) {
  const std::vector<SweepPoint> points = expand_sweep(
      parse("noc.buffer_depth = 2,4\ninj = 0.01,0.02\nscheme = rp,gflov\n"),
      parse("cycles = 40000\nscheme = baseline\n"));
  ASSERT_EQ(points.size(), 8u);
  std::vector<std::string> order;
  for (const SweepPoint& p : points) {
    order.push_back(p.config.get_string("scheme") + "/" +
                    p.config.get_string("inj") + "/" +
                    p.config.get_string("noc.buffer_depth"));
    EXPECT_EQ(p.experiment.measure, 40000u);
  }
  EXPECT_EQ(order, (std::vector<std::string>{
                       "RP/0.01/2", "RP/0.01/4", "RP/0.02/2", "RP/0.02/4",
                       "gFLOV/0.01/2", "gFLOV/0.01/4", "gFLOV/0.02/2",
                       "gFLOV/0.02/4"}));
}

// A bad element fails like a bad scalar, naming the key.
TEST(SweepSpec, EveryListElementIsTypeChecked) {
  EXPECT_THROW(expand_sweep(parse("noc.buffer_depth = 2,x\n"), Config{}),
               std::logic_error);
}

// Blocks split at `---` lines, in file order; a block of comments only is
// dropped, and a removed key fails as it does on the command line.
TEST(SweepSpec, SpecBlocksInFileOrder) {
  const std::vector<Config> blocks = parse_sweep_spec(
      "# header\n---\nscheme = rp\ninj = 0.01,0.02\n--- \ngated = 0.5\n");
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].keys(), (std::vector<std::string>{"inj", "scheme"}));
  EXPECT_EQ(blocks[1].get_string("gated"), "0.5");
  EXPECT_THROW(parse_sweep_spec("schemes = rp\n"), std::logic_error);
}

}  // namespace
}  // namespace flov
