// Naming scheme of the generated artefacts, exactly as in the paper
// (Section 2): for a class A the pipeline emits A_O_Int, A_O_Local,
// A_O_Proxy_<PROTO>, A_C_Int, A_C_Local, A_C_Proxy_<PROTO>, A_O_Factory
// and A_C_Factory; every field f gains get_f/set_f property accessors.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace rafda::transform {

namespace naming {

std::string o_int(std::string_view cls);
std::string o_local(std::string_view cls);
std::string o_proxy(std::string_view cls, std::string_view protocol);
std::string c_int(std::string_view cls);
std::string c_local(std::string_view cls);
std::string c_proxy(std::string_view cls, std::string_view protocol);
std::string o_factory(std::string_view cls);
std::string c_factory(std::string_view cls);

std::string getter(std::string_view field);
std::string setter(std::string_view field);

/// Factory forwarder for a static method m: `call_m` (an implementation
/// convenience documented in DESIGN.md; it routes through discover()).
std::string static_forwarder(std::string_view method);

/// Name of the singleton accessor on A_C_Local (paper Fig 4: get_me).
inline constexpr const char* kSingletonField = "me";
inline constexpr const char* kSingletonGetter = "get_me";

/// Fields every generated proxy carries so the middleware can route calls:
/// the node the real object lives on (an int) and its object id there (a
/// long), declared in this order and nothing else, so they are always
/// these two slots of the proxy's layout.
inline constexpr const char* kProxyNodeField = "__node";
inline constexpr const char* kProxyOidField = "__oid";
inline constexpr std::size_t kProxyNodeSlot = 0;
inline constexpr std::size_t kProxyOidSlot = 1;

/// Decomposition of a generated proxy class name.
struct ProxyName {
    std::string original;  // the application class, e.g. "X"
    char family;           // 'O' (instance) or 'C' (static)
    std::string protocol;  // e.g. "RMI"
};

/// Parses "X_O_Proxy_RMI" / "X_C_Proxy_SOAP"; nullopt for other names.
std::optional<ProxyName> parse_proxy(std::string_view name);

/// "X_O_Local" -> "X_O_Int", "X_C_Local" -> "X_C_Int"; nullopt otherwise.
std::optional<std::string> local_to_interface(std::string_view name);

/// "X_O_Int" + "RMI" -> "X_O_Proxy_RMI" (also for the _C_ family).
std::string interface_to_proxy(std::string_view iface, std::string_view protocol);

}  // namespace naming

}  // namespace rafda::transform
