#include "transform/naming.hpp"

#include "support/strings.hpp"

namespace rafda::transform::naming {

std::string o_int(std::string_view cls) { return std::string(cls) + "_O_Int"; }
std::string o_local(std::string_view cls) { return std::string(cls) + "_O_Local"; }
std::string o_proxy(std::string_view cls, std::string_view protocol) {
    return std::string(cls) + "_O_Proxy_" + std::string(protocol);
}
std::string c_int(std::string_view cls) { return std::string(cls) + "_C_Int"; }
std::string c_local(std::string_view cls) { return std::string(cls) + "_C_Local"; }
std::string c_proxy(std::string_view cls, std::string_view protocol) {
    return std::string(cls) + "_C_Proxy_" + std::string(protocol);
}
std::string o_factory(std::string_view cls) { return std::string(cls) + "_O_Factory"; }
std::string c_factory(std::string_view cls) { return std::string(cls) + "_C_Factory"; }

std::string getter(std::string_view field) { return "get_" + std::string(field); }
std::string setter(std::string_view field) { return "set_" + std::string(field); }

std::string static_forwarder(std::string_view method) {
    return "call_" + std::string(method);
}

std::optional<ProxyName> parse_proxy(std::string_view name) {
    for (char family : {'O', 'C'}) {
        std::string marker = std::string("_") + family + "_Proxy_";
        std::size_t pos = name.find(marker);
        if (pos == std::string_view::npos || pos == 0) continue;
        std::string protocol(name.substr(pos + marker.size()));
        if (protocol.empty()) continue;
        return ProxyName{std::string(name.substr(0, pos)), family, std::move(protocol)};
    }
    return std::nullopt;
}

std::optional<std::string> local_to_interface(std::string_view name) {
    for (const char* suffix : {"_O_Local", "_C_Local"}) {
        if (ends_with(name, suffix) && name.size() > std::string_view(suffix).size()) {
            std::string base(name.substr(0, name.size() - 5));  // strip "Local"
            return base + "Int";
        }
    }
    return std::nullopt;
}

std::string interface_to_proxy(std::string_view iface, std::string_view protocol) {
    // "X_O_Int" -> "X_O_" + "Proxy_" + protocol
    std::string base(iface.substr(0, iface.size() - 3));  // strip "Int"
    return base + "Proxy_" + std::string(protocol);
}

}  // namespace rafda::transform::naming
