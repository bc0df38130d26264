// Error hierarchy shared by all RAFDA subsystems.
//
// Errors that indicate misuse of the library, malformed input or broken
// invariants are reported by throwing one of the exception types below
// (E.2: throw to signal that a function can't perform its task).  Expected,
// recoverable conditions (e.g. a remote call failing because of injected
// network faults) are modelled as ordinary return values by the subsystems
// that need them.
#pragma once

#include <stdexcept>
#include <string>

namespace rafda {

/// Base class of all errors raised by the RAFDA libraries.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed RIR assembly, bad descriptor syntax, unresolvable names.
class ParseError : public Error {
public:
    ParseError(const std::string& what, int line)
        : Error("parse error (line " + std::to_string(line) + "): " + what),
          line_(line) {}

    int line() const noexcept { return line_; }

private:
    int line_;
};

/// A class pool or class file violates a structural invariant
/// (dangling reference, duplicate member, bad stack shape, ...).
class VerifyError : public Error {
public:
    explicit VerifyError(const std::string& what) : Error("verify error: " + what) {}
};

/// The interpreter encountered a condition that a verified program should
/// never produce (wrong operand type, missing method, null dereference that
/// the guest program did not handle, ...).
class VmError : public Error {
public:
    explicit VmError(const std::string& what) : Error("vm error: " + what) {}
};

/// The transformation pipeline was asked to do something impossible
/// (e.g. substitute a class the analysis marked non-transformable).
class TransformError : public Error {
public:
    explicit TransformError(const std::string& what) : Error("transform error: " + what) {}
};

/// Marshalling / unmarshalling failure in a protocol codec.
class CodecError : public Error {
public:
    explicit CodecError(const std::string& what) : Error("codec error: " + what) {}
};

/// Distributed-runtime misconfiguration (unknown node, unexported object, ...).
class RuntimeError : public Error {
public:
    explicit RuntimeError(const std::string& what) : Error("runtime error: " + what) {}
};

}  // namespace rafda
