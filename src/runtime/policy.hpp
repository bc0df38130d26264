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
    void set_default_protocol(std::string protocol);
    const std::string& default_protocol() const noexcept { return default_protocol_; }

    /// Instances of `cls` are created on `node` (empty protocol = default).
    void set_instance_home(const std::string& cls, net::NodeId node,
                           std::string protocol = "");

    /// The singleton for `cls`'s static members lives on `node`.
    void set_singleton_home(const std::string& cls, net::NodeId node,
                            std::string protocol = "");

    /// Where an instance of `cls` created by code on `creating_node` lives.
    /// Default: on the creating node itself.
    Placement instance_placement(const std::string& cls, net::NodeId creating_node) const;

    /// Where `cls`'s singleton lives.  Default: node 0, so static state
    /// stays unique across the system even with no explicit policy.
    Placement singleton_placement(const std::string& cls, net::NodeId asking_node) const;

private:
    struct Home {
        net::NodeId node = 0;
        std::string protocol;  // empty = default
    };

    std::string resolved(const std::string& protocol) const {
        return protocol.empty() ? default_protocol_ : protocol;
    }

    std::string default_protocol_ = "RMI";
    std::map<std::string, Home> instance_homes_;
    std::map<std::string, Home> singleton_homes_;
};

}  // namespace rafda::runtime
