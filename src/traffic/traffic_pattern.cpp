#include "traffic/traffic_pattern.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace flov {
namespace {

/// Validated deterministic target: active and not the source.
NodeId checked(NodeId src, NodeId dst, const ActiveCores& active) {
  if (dst == src || dst == kInvalidNode || !active[dst]) return kInvalidNode;
  return dst;
}

}  // namespace

void ActiveCores::rebuild() {
  ids_.clear();
  for (std::size_t n = 0; n < gated_.size(); ++n) {
    if (gated_[n] == 0) ids_.push_back(static_cast<NodeId>(n));
  }
}

bool ActiveCores::consistent() const {
  std::size_t next = 0;
  for (std::size_t n = 0; n < gated_.size(); ++n) {
    if (gated_[n] != 0) continue;
    if (next >= ids_.size() || ids_[next] != static_cast<NodeId>(n)) {
      return false;
    }
    ++next;
  }
  return next == ids_.size();
}

std::unique_ptr<TrafficPattern> TrafficPattern::create(
    const std::string& name, const MeshGeometry& geom) {
  if (name == "uniform") return std::make_unique<UniformPattern>(geom);
  if (name == "tornado") return std::make_unique<TornadoPattern>(geom);
  if (name == "transpose") return std::make_unique<TransposePattern>(geom);
  if (name == "bitcomplement") {
    return std::make_unique<BitComplementPattern>(geom);
  }
  if (name == "neighbor") return std::make_unique<NeighborPattern>(geom);
  if (name == "hotspot") return std::make_unique<HotspotPattern>(geom);
  FLOV_CHECK(false, "unknown traffic pattern: " + name);
  return nullptr;
}

NodeId UniformPattern::dest(NodeId src, const ActiveCores& active,
                            Rng& rng) const {
  // The pick-th active id other than src, in ascending order (what a scan
  // of the mask returns): ids ascend, so the pick reaches src exactly when
  // ids[pick] >= src, and then steps over it.
  const std::vector<NodeId>& ids = active.ids();
  const bool src_active = active[src];
  const std::size_t count = ids.size() - (src_active ? 1 : 0);
  if (count == 0) return kInvalidNode;
  const std::size_t pick = rng.next_below(count);
  return ids[pick + (src_active && ids[pick] >= src ? 1 : 0)];
}

NodeId TornadoPattern::dest(NodeId src, const ActiveCores& active,
                            Rng& /*rng*/) const {
  const Coord c = geom_.coord(src);
  const int k = geom_.width();
  const int dx = (k + 1) / 2 - 1;  // ceil(k/2) - 1
  if (dx == 0) return kInvalidNode;
  return checked(src, geom_.id((c.x + dx) % k, c.y), active);
}

NodeId TransposePattern::dest(NodeId src, const ActiveCores& active,
                              Rng& /*rng*/) const {
  const Coord c = geom_.coord(src);
  if (c.x >= geom_.height() || c.y >= geom_.width()) return kInvalidNode;
  return checked(src, geom_.id(c.y, c.x), active);
}

NodeId BitComplementPattern::dest(NodeId src,
                                  const ActiveCores& active,
                                  Rng& /*rng*/) const {
  const int n = geom_.num_nodes();
  FLOV_CHECK((n & (n - 1)) == 0, "bitcomplement needs power-of-two nodes");
  return checked(src, (~src) & (n - 1), active);
}

NodeId NeighborPattern::dest(NodeId src, const ActiveCores& active,
                             Rng& /*rng*/) const {
  const Coord c = geom_.coord(src);
  return checked(src, geom_.id((c.x + 1) % geom_.width(), c.y), active);
}

HotspotPattern::HotspotPattern(const MeshGeometry& geom, double hot_fraction)
    : geom_(geom), hot_fraction_(hot_fraction), uniform_(geom) {
  hotspots_ = {geom.id(0, 0), geom.id(geom.width() - 1, 0),
               geom.id(0, geom.height() - 1),
               geom.id(geom.width() - 1, geom.height() - 1)};
}

NodeId HotspotPattern::dest(NodeId src, const ActiveCores& active,
                            Rng& rng) const {
  if (rng.next_bool(hot_fraction_)) {
    const NodeId h = hotspots_[rng.next_below(hotspots_.size())];
    const NodeId ok = (h != src && active[h]) ? h : kInvalidNode;
    if (ok != kInvalidNode) return ok;
  }
  return uniform_.dest(src, active, rng);
}

}  // namespace flov
