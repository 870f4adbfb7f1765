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
#include <memory>
#include <string>
#include <utility>
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
  explicit ActiveCores(std::vector<bool> mask) : mask_(std::move(mask)) {
    rebuild();
  }

  bool operator[](NodeId n) const { return mask_[static_cast<std::size_t>(n)]; }
  const std::vector<NodeId>& ids() const { return ids_; }

  /// Re-reads every node's flag from `is_active(n)`; the id list is
  /// rebuilt only when a flag flipped.
  template <typename IsActive>
  void refresh(IsActive&& is_active) {
    bool flipped = false;
    for (std::size_t n = 0; n < mask_.size(); ++n) {
      const bool a = is_active(static_cast<NodeId>(n));
      if (a != mask_[n]) {
        mask_[n] = a;
        flipped = true;
      }
    }
    if (flipped) rebuild();
  }

  /// ids() equals a fresh recount of the mask (Debug oracle).
  bool consistent() const;

 private:
  void rebuild();

  std::vector<bool> mask_;
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
