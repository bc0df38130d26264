// Generation of the per-class artefact family (paper Figures 3, 4, 5).
//
// For a substitutable class A the generator emits:
//   A_O_Int      — interface over instance members (fields as properties)
//   A_O_Local    — the non-remote implementation
//   A_O_Proxy_P  — one remote proxy per protocol P (all methods native;
//                  the distributed runtime binds them to marshalling code)
//   A_C_Int      — interface over static members, made non-static
//   A_C_Local    — singleton implementation (me / get_me as in Fig 4)
//   A_C_Proxy_P  — remote proxies for the static part
//   A_O_Factory  — native make() (policy hook) + init(...) per constructor
//   A_C_Factory  — native discover() (policy hook) + clinit(that) +
//                  call_m forwarders for static call sites
//
// One member rule decides what each family holds: a get_f/set_f pair per
// field, then the methods, taking the instance members for the _O_ family
// and the statics for the _C_ family; constructors and <clinit> go to the
// factories.  Int, Local and the proxies of both families are built from
// that one walk (instance proxies add the members inherited from
// substitutable ancestors and transformable interfaces).
#pragma once

#include <string>
#include <vector>

#include "model/classfile.hpp"
#include "model/classpool.hpp"
#include "transform/analysis.hpp"
#include "transform/rewriter.hpp"

namespace rafda::transform {

struct GeneratorOptions {
    /// Protocol suffixes to emit proxies for.
    std::vector<std::string> protocols{"RMI", "SOAP"};
};

/// Generates the eight artefacts for class `cls` (must be substitutable).
/// Emitted classes reference families of other substitutable classes by
/// name; add all families to one pool before verifying.
std::vector<model::ClassFile> generate_family(const Substitutables& subst,
                                              const model::ClassFile& cls,
                                              const GeneratorOptions& options);

/// Rewrites a transformable-but-not-substituted class in place: it keeps
/// its name, fields and statics, but its types and call sites are redirected
/// at the substituted families ("Policy dictates which classes are
/// substitutable", Sec 1).  A transformable user interface only has its
/// method signatures mapped to extracted-interface types.
model::ClassFile rewrite_in_place(const Substitutables& subst,
                                  const model::ClassFile& cls);

}  // namespace rafda::transform
