// VersionRegistry: CRC-verified store of deployable model versions — the
// device-fleet analog of an OTA artifact registry. Each version keeps the
// full pristine image plus the manifest CRC recorded (or supplied) when it
// was added; verify() recomputes the image CRC so any later corruption of
// the staged bytes is caught before the image is flashed to more replicas.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rollout/rollout.hpp"
#include "runtime/model.hpp"
#include "runtime/rt_error.hpp"

namespace mn::rollout {

class VersionRegistry {
 public:
  struct Version {
    std::string tag;
    rt::ModelDef image;
    uint32_t manifest_crc = 0;  // expected image_crc(), from the manifest
    Tick service_ticks = 1;     // virtual cost per invoke on this version
    int instances = 1;          // replicas to build when staged
    int variant = -1;           // pool variant id once staged (-1 = not yet)
  };

  // Adds a version. When `manifest_crc` is supplied it is checked against
  // the image immediately (a download that arrived corrupted is rejected
  // before it can ever be staged); otherwise the CRC is recorded from the
  // image as-is. Returns the version id.
  rt::Expected<int> add_version(std::string tag, rt::ModelDef image,
                                Tick service_ticks, int instances,
                                std::optional<uint32_t> manifest_crc =
                                    std::nullopt);

  int num_versions() const { return static_cast<int>(versions_.size()); }
  const Version& version(int id) const {
    return versions_.at(static_cast<size_t>(id));
  }

  // Provenance re-check: recompute the stored image's CRC and compare to
  // the manifest. The rollout controller calls this at begin() and at every
  // promotion boundary.
  std::optional<rt::RtError> verify(int id) const;

  // Mutable access for the chaos harness (PoisonPlan::target_staged_image
  // flips bits here) and for the controller to record the staged variant.
  rt::ModelDef& mutable_image(int id) {
    return versions_.at(static_cast<size_t>(id)).image;
  }
  void set_variant(int id, int variant) {
    versions_.at(static_cast<size_t>(id)).variant = variant;
  }

  // The version the fleet currently serves on (-1 until first set_active).
  void set_active(int id);
  int active() const { return active_; }

 private:
  std::vector<Version> versions_;
  int active_ = -1;
};

}  // namespace mn::rollout
