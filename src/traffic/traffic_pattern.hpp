// Synthetic traffic patterns.
//
// A pattern maps a source to a destination. Destinations are restricted to
// ACTIVE cores (the paper's model: power-gated cores neither send nor
// receive synthetic traffic; "communication occurs between two power-on
// nodes"). Deterministic patterns (tornado, transpose, ...) return
// kInvalidNode when their fixed target is gated — the source simply does
// not generate that packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace flov {

/// The cores that may send and receive traffic: a per-node mask plus the
/// ascending list of its set ids, so a uniform pick indexes the list
/// instead of scanning the mesh twice.
class ActiveCores {
 public:
  /// `active[n]` marks the cores that may send and receive.
  explicit ActiveCores(const std::vector<bool>& active)
      : gated_(active.size()) {
    for (std::size_t n = 0; n < active.size(); ++n) gated_[n] = !active[n];
    rebuild();
  }

  bool operator[](NodeId n) const {
    return gated_[static_cast<std::size_t>(n)] == 0;
  }
  const std::vector<NodeId>& ids() const { return ids_; }

  /// Catches up with a core-gated mask (NocSystem::core_gated_mask, same
  /// size): one memcmp against the last-seen copy, and on any difference
  /// the copy is taken and the id list rebuilt. Called every cycle, so no
  /// write to the mask can go unseen.
  void refresh(const std::vector<std::uint8_t>& core_gated) {
    if (std::memcmp(core_gated.data(), gated_.data(), gated_.size()) == 0) {
      return;
    }
    gated_ = core_gated;
    rebuild();
  }

  /// ids() equals a fresh recount of the mask (Debug oracle).
  bool consistent() const;

 private:
  void rebuild();

  std::vector<std::uint8_t> gated_;  ///< last-seen core-gated mask
  std::vector<NodeId> ids_;
};

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;

  /// Destination for a packet from `src`, or kInvalidNode to skip.
  /// `active[n]` marks cores that may receive traffic.
  virtual NodeId dest(NodeId src, const ActiveCores& active,
                      Rng& rng) const = 0;

  virtual const char* name() const = 0;

  /// Factory: "uniform", "tornado", "transpose", "bitcomplement",
  /// "neighbor", "hotspot".
  static std::unique_ptr<TrafficPattern> create(const std::string& name,
                                                const MeshGeometry& geom);
};

/// Uniform random over active cores other than the source: one
/// next_below(count) draw indexes the active ids with the source skipped.
class UniformPattern final : public TrafficPattern {
 public:
  explicit UniformPattern(const MeshGeometry& /*geom*/) {}
  NodeId dest(NodeId src, const ActiveCores& active,
              Rng& rng) const override;
  const char* name() const override { return "uniform"; }
};

/// Tornado: (x, y) -> ((x + ceil(k/2) - 1) mod k, y) — same-row pressure.
class TornadoPattern final : public TrafficPattern {
 public:
  explicit TornadoPattern(const MeshGeometry& geom) : geom_(geom) {}
  NodeId dest(NodeId src, const ActiveCores& active,
              Rng& rng) const override;
  const char* name() const override { return "tornado"; }

 private:
  const MeshGeometry& geom_;
};

/// Transpose: (x, y) -> (y, x).
class TransposePattern final : public TrafficPattern {
 public:
  explicit TransposePattern(const MeshGeometry& geom) : geom_(geom) {}
  NodeId dest(NodeId src, const ActiveCores& active,
              Rng& rng) const override;
  const char* name() const override { return "transpose"; }

 private:
  const MeshGeometry& geom_;
};

/// Bit-complement on the node id (requires power-of-two node count).
class BitComplementPattern final : public TrafficPattern {
 public:
  explicit BitComplementPattern(const MeshGeometry& geom) : geom_(geom) {}
  NodeId dest(NodeId src, const ActiveCores& active,
              Rng& rng) const override;
  const char* name() const override { return "bitcomplement"; }

 private:
  const MeshGeometry& geom_;
};

/// Nearest-neighbor ring within the row: (x, y) -> ((x + 1) mod k, y).
class NeighborPattern final : public TrafficPattern {
 public:
  explicit NeighborPattern(const MeshGeometry& geom) : geom_(geom) {}
  NodeId dest(NodeId src, const ActiveCores& active,
              Rng& rng) const override;
  const char* name() const override { return "neighbor"; }

 private:
  const MeshGeometry& geom_;
};

/// A fraction of traffic targets the four corner nodes (MC-like hotspots);
/// the rest is uniform.
class HotspotPattern final : public TrafficPattern {
 public:
  HotspotPattern(const MeshGeometry& geom, double hot_fraction = 0.3);
  NodeId dest(NodeId src, const ActiveCores& active,
              Rng& rng) const override;
  const char* name() const override { return "hotspot"; }

 private:
  const MeshGeometry& geom_;
  double hot_fraction_;
  std::vector<NodeId> hotspots_;
  UniformPattern uniform_;
};

}  // namespace flov
