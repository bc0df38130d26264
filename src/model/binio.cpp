#include "model/binio.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rafda::model {

namespace {

constexpr std::uint32_t kMagic = 0x52495242;  // "RIRB"
constexpr std::uint16_t kVersion = 1;

enum class ConstTag : std::uint8_t { Null, Bool, Int, Long, Double, Str };

void write_const(ByteWriter& w, const ConstValue& k) {
    if (std::holds_alternative<Null>(k)) {
        w.u8(static_cast<std::uint8_t>(ConstTag::Null));
    } else if (const bool* b = std::get_if<bool>(&k)) {
        w.u8(static_cast<std::uint8_t>(ConstTag::Bool));
        w.u8(*b ? 1 : 0);
    } else if (const std::int32_t* i = std::get_if<std::int32_t>(&k)) {
        w.u8(static_cast<std::uint8_t>(ConstTag::Int));
        w.i32(*i);
    } else if (const std::int64_t* j = std::get_if<std::int64_t>(&k)) {
        w.u8(static_cast<std::uint8_t>(ConstTag::Long));
        w.i64(*j);
    } else if (const double* d = std::get_if<double>(&k)) {
        w.u8(static_cast<std::uint8_t>(ConstTag::Double));
        w.f64(*d);
    } else {
        w.u8(static_cast<std::uint8_t>(ConstTag::Str));
        w.str(std::get<std::string>(k));
    }
}

ConstValue read_const(ByteReader& r) {
    std::uint8_t tag = r.u8();
    switch (static_cast<ConstTag>(tag)) {
        case ConstTag::Null: return Null{};
        case ConstTag::Bool: return r.u8() != 0;
        case ConstTag::Int: return r.i32();
        case ConstTag::Long: return r.i64();
        case ConstTag::Double: return r.f64();
        case ConstTag::Str: return r.str();
    }
    throw CodecError("rirb: bad constant tag");
}

void write_instruction(ByteWriter& w, const Instruction& i) {
    w.u8(static_cast<std::uint8_t>(i.op));
    write_const(w, i.k);
    w.i32(i.a);
    w.str(i.owner);
    w.str(i.member);
    w.str(i.desc);
}

Instruction read_instruction(ByteReader& r) {
    Instruction i;
    std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(Op::ALen))
        throw CodecError("rirb: bad opcode " + std::to_string(op));
    i.op = static_cast<Op>(op);
    i.k = read_const(r);
    i.a = r.i32();
    i.owner = r.str();
    i.member = r.str();
    i.desc = r.str();
    return i;
}

void write_method(ByteWriter& w, const Method& m) {
    w.str(m.name);
    w.str(m.descriptor());
    std::uint8_t flags = 0;
    if (m.is_static) flags |= 1;
    if (m.is_native) flags |= 2;
    if (m.is_abstract) flags |= 4;
    w.u8(flags);
    w.u8(static_cast<std::uint8_t>(m.vis));
    w.i32(m.code.max_locals);
    w.u32(static_cast<std::uint32_t>(m.code.instrs.size()));
    for (const Instruction& i : m.code.instrs) write_instruction(w, i);
    w.u32(static_cast<std::uint32_t>(m.code.handlers.size()));
    for (const Handler& h : m.code.handlers) {
        w.i32(h.start);
        w.i32(h.end);
        w.i32(h.target);
        w.str(h.class_name);
    }
}

Method read_method(ByteReader& r) {
    Method m;
    m.name = r.str();
    m.sig = MethodSig::parse(r.str());
    std::uint8_t flags = r.u8();
    m.is_static = flags & 1;
    m.is_native = flags & 2;
    m.is_abstract = flags & 4;
    std::uint8_t vis = r.u8();
    if (vis > static_cast<std::uint8_t>(Visibility::Private))
        throw CodecError("rirb: bad visibility");
    m.vis = static_cast<Visibility>(vis);
    m.code.max_locals = r.i32();
    std::uint32_t n = r.u32();
    // A corrupt count must not size the allocation: every instruction
    // takes at least one input byte, so the input bounds the reserve.
    m.code.instrs.reserve(std::min<std::size_t>(n, r.remaining()));
    for (std::uint32_t k = 0; k < n; ++k) m.code.instrs.push_back(read_instruction(r));
    std::uint32_t hn = r.u32();
    for (std::uint32_t k = 0; k < hn; ++k) {
        Handler h;
        h.start = r.i32();
        h.end = r.i32();
        h.target = r.i32();
        h.class_name = r.str();
        m.code.handlers.push_back(std::move(h));
    }
    return m;
}

void write_class(ByteWriter& w, const ClassFile& cf) {
    w.str(cf.name);
    w.str(cf.super_name);
    w.u32(static_cast<std::uint32_t>(cf.interfaces.size()));
    for (const std::string& i : cf.interfaces) w.str(i);
    std::uint8_t flags = 0;
    if (cf.is_interface) flags |= 1;
    if (cf.is_special) flags |= 2;
    w.u8(flags);
    w.u32(static_cast<std::uint32_t>(cf.fields.size()));
    for (const Field& f : cf.fields) {
        w.str(f.name);
        w.str(f.type.descriptor());
        std::uint8_t fflags = 0;
        if (f.is_static) fflags |= 1;
        if (f.is_final) fflags |= 2;
        w.u8(fflags);
        w.u8(static_cast<std::uint8_t>(f.vis));
    }
    w.u32(static_cast<std::uint32_t>(cf.methods.size()));
    for (const Method& m : cf.methods) write_method(w, m);
}

ClassFile read_class(ByteReader& r) {
    ClassFile cf;
    cf.name = r.str();
    cf.super_name = r.str();
    std::uint32_t ni = r.u32();
    for (std::uint32_t k = 0; k < ni; ++k) cf.interfaces.push_back(r.str());
    std::uint8_t flags = r.u8();
    cf.is_interface = flags & 1;
    cf.is_special = flags & 2;
    std::uint32_t nf = r.u32();
    for (std::uint32_t k = 0; k < nf; ++k) {
        Field f;
        f.name = r.str();
        f.type = TypeDesc::parse(r.str());
        std::uint8_t fflags = r.u8();
        f.is_static = fflags & 1;
        f.is_final = fflags & 2;
        std::uint8_t vis = r.u8();
        if (vis > static_cast<std::uint8_t>(Visibility::Private))
            throw CodecError("rirb: bad field visibility");
        f.vis = static_cast<Visibility>(vis);
        cf.fields.push_back(std::move(f));
    }
    std::uint32_t nm = r.u32();
    for (std::uint32_t k = 0; k < nm; ++k) cf.methods.push_back(read_method(r));
    return cf;
}

}  // namespace

Bytes save_pool(const ClassPool& pool) {
    ByteWriter w;
    w.u32(kMagic);
    w.u16(kVersion);
    w.u32(static_cast<std::uint32_t>(pool.size()));
    for (const ClassFile* cf : pool.all()) write_class(w, *cf);
    return w.take();
}

ClassPool load_pool(const Bytes& data) {
    ByteReader r(data);
    if (r.u32() != kMagic) throw CodecError("rirb: bad magic");
    std::uint16_t version = r.u16();
    if (version != kVersion)
        throw CodecError("rirb: unsupported version " + std::to_string(version));
    std::uint32_t n = r.u32();
    ClassPool pool;
    for (std::uint32_t k = 0; k < n; ++k) pool.add(read_class(r));
    if (!r.at_end()) throw CodecError("rirb: trailing bytes");
    return pool;
}

}  // namespace rafda::model
