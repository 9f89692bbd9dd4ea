#include "fabric/peer.h"

namespace blockoptr {

OrgPeer::OrgPeer(Simulator* sim, std::string org_name)
    : org_(std::move(org_name)),
      endorser_station_(
          std::make_unique<ServiceStation>(sim, org_ + "-endorser")),
      validator_station_(
          std::make_unique<ServiceStation>(sim, org_ + "-validator")) {}

}  // namespace blockoptr
