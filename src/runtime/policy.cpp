#include "runtime/policy.hpp"

namespace rafda::runtime {

void DistributionPolicy::set_default_protocol(std::string protocol) {
    default_protocol_ = std::move(protocol);
}

void DistributionPolicy::set_instance_home(const std::string& cls, net::NodeId node,
                                           std::string protocol) {
    instance_homes_[cls] = Home{node, std::move(protocol)};
}

void DistributionPolicy::set_singleton_home(const std::string& cls, net::NodeId node,
                                            std::string protocol) {
    singleton_homes_[cls] = Home{node, std::move(protocol)};
}

Placement DistributionPolicy::instance_placement(const std::string& cls,
                                                 net::NodeId creating_node) const {
    auto it = instance_homes_.find(cls);
    if (it == instance_homes_.end()) return Placement{creating_node, default_protocol_};
    return Placement{it->second.node, resolved(it->second.protocol)};
}

Placement DistributionPolicy::singleton_placement(const std::string& cls,
                                                  net::NodeId) const {
    auto it = singleton_homes_.find(cls);
    if (it == singleton_homes_.end()) return Placement{0, default_protocol_};
    return Placement{it->second.node, resolved(it->second.protocol)};
}

}  // namespace rafda::runtime
