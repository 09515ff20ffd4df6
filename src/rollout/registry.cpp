#include "rollout/registry.hpp"

#include <stdexcept>

namespace mn::rollout {

rt::Expected<int> VersionRegistry::add_version(
    std::string tag, rt::ModelDef image, Tick service_ticks, int instances,
    std::optional<uint32_t> manifest_crc) {
  if (service_ticks < 1)
    throw std::invalid_argument("VersionRegistry: service_ticks must be >= 1");
  if (instances < 1)
    throw std::invalid_argument("VersionRegistry: instances must be >= 1");
  if (auto err = image.check()) return *err;
  const uint32_t crc = image.image_crc();
  if (manifest_crc && *manifest_crc != crc)
    return rt::RtError{rt::ErrorCode::kCrcMismatch,
                       "VersionRegistry: image '" + tag +
                           "' does not match its manifest CRC"};
  Version v;
  v.tag = std::move(tag);
  v.image = std::move(image);
  v.manifest_crc = crc;
  v.service_ticks = service_ticks;
  v.instances = instances;
  const int id = static_cast<int>(versions_.size());
  versions_.push_back(std::move(v));
  return id;
}

std::optional<rt::RtError> VersionRegistry::verify(int id) const {
  const Version& v = versions_.at(static_cast<size_t>(id));
  if (v.image.image_crc() != v.manifest_crc)
    return rt::RtError{rt::ErrorCode::kCrcMismatch,
                       "VersionRegistry: staged image '" + v.tag +
                           "' drifted from its manifest CRC"};
  return std::nullopt;
}

void VersionRegistry::set_active(int id) {
  if (id < 0 || id >= num_versions())
    throw std::out_of_range("VersionRegistry: unknown version id");
  active_ = id;
}

}  // namespace mn::rollout
