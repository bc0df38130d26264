// Distribution policy — "Policy dictates which classes are substitutable
// and which proxy implementations are used" (paper Sec 1).
//
// The policy answers the two questions the factory seams ask at runtime:
//   * make():     where should a new instance of class A live when code on
//                 node n creates one, and over which protocol should n talk
//                 to it if that is not n itself?
//   * discover(): where does the singleton holding A's static members live?
//
// It is deliberately mutable: changing it (and/or migrating existing
// objects) is how the deployed application "adapts to its environment by
// dynamically altering its distribution boundaries".
#pragma once

#include <map>
#include <string>
#include <utility>

#include "net/network.hpp"

namespace rafda::runtime {

struct Placement {
    net::NodeId node = 0;
    std::string protocol = "RMI";

    bool operator==(const Placement&) const = default;
};

class DistributionPolicy {
public:
    /// Protocol used when a placement does not name one.
    void set_default_protocol(std::string protocol) { default_protocol_ = std::move(protocol); }
    const std::string& default_protocol() const noexcept { return default_protocol_; }

    /// Instances of `cls` are created on `node` (empty protocol = default).
    void set_instance_home(const std::string& cls, net::NodeId node, std::string protocol = "") {
        instance_homes_[cls] = Placement{node, std::move(protocol)};
    }

    /// The singleton for `cls`'s static members lives on `node`.
    void set_singleton_home(const std::string& cls, net::NodeId node, std::string protocol = "") {
        singleton_homes_[cls] = Placement{node, std::move(protocol)};
    }

    /// Where an instance of `cls` created by code on `creating_node` lives.
    /// Default: on the creating node itself.
    Placement instance_placement(const std::string& cls, net::NodeId creating_node) const {
        return placement(instance_homes_, cls, creating_node);
    }

    /// Where `cls`'s singleton lives.  Default: node 0, so static state
    /// stays unique across the system even with no explicit policy.
    Placement singleton_placement(const std::string& cls) const {
        return placement(singleton_homes_, cls, 0);
    }

private:
    /// `cls`'s home in `homes`, else `fallback`; an empty protocol reads
    /// as the default at the time of asking.
    Placement placement(const std::map<std::string, Placement>& homes, const std::string& cls,
                        net::NodeId fallback) const {
        const auto it = homes.find(cls);
        if (it == homes.end()) return Placement{fallback, default_protocol_};
        const Placement& home = it->second;
        return Placement{home.node, home.protocol.empty() ? default_protocol_ : home.protocol};
    }

    std::string default_protocol_ = "RMI";
    std::map<std::string, Placement> instance_homes_;
    std::map<std::string, Placement> singleton_homes_;
};

}  // namespace rafda::runtime
