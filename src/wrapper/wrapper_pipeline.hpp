// The wrapper-generation baseline (paper Sec 3, Related Work).
//
// "An alternative approach ... is to generate wrappers for every class.
// Wrappers act as proxies to local objects, by encapsulating an object and
// intercepting all access requests to that object.  There is a wrapper per
// instantiated object and all references to that object are altered to
// refer to the wrapper.  Although much simpler in terms of implementation,
// this introduces significantly greater overhead and does not offer
// solutions to any of the current limitations."
//
// This module implements that alternative so experiment E4 can measure the
// overhead claim.  For every wrappable class A it generates A_Wrapper:
//
//   field target LA;                  — the encapsulated object
//   static make()/init(...)          — allocate target + wrapper pair
//   get_f/set_f                      — intercept field access (extra hop
//                                      through `target`)
//   m(...) -> m__impl(...)           — intercept method calls (forwarding
//                                      call), m__impl holds the rewritten
//                                      original body
//
// and rewrites call sites so all references denote wrappers.  True to the
// quote, the limitations stay: statics remain ordinary statics (rewritten
// in place, not relocatable), user-defined interfaces are not supported,
// and there is no remote story — this is a measurement baseline.
#pragma once

#include <string>
#include <vector>

#include "model/classpool.hpp"
#include "transform/analysis.hpp"

namespace rafda::wrapper {

/// Naming used by the wrapper generator.
std::string wrapper_name(std::string_view cls);

struct WrapperReport {
    transform::Analysis analysis;
    std::vector<std::string> wrapped;  // classes that received wrappers, sorted
};

struct WrapperResult {
    model::ClassPool pool;
    WrapperReport report;
};

/// Runs the wrapper pipeline on a verified pool.  Throws TransformError if
/// the program uses user-defined interfaces (a limitation the wrapper
/// approach does not solve).
WrapperResult run_wrapper_pipeline(const model::ClassPool& original,
                                   bool verify_output = true);

}  // namespace rafda::wrapper
