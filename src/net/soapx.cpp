#include "net/soapx.hpp"

#include <cctype>
#include <cstdio>
#include <map>
#include <string_view>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rafda::net {

namespace {

// ---- encoding -----------------------------------------------------------
//
// The document is appended piecewise to the caller's ByteWriter (in the
// RPC path a pooled frame), never assembled in an intermediate
// ostringstream.  The numeric formats below must stay byte-identical to
// the historical ostream output: std::to_string matches operator<< for
// integers, and "%.17g" matches a precision(17) defaultfloat stream for
// doubles (both pinned by SoapxFormat tests).

void append_text(ByteWriter& w, std::string_view v) { w.text(v); }

template <typename Int>
void append_int(ByteWriter& w, Int v) {
    w.text(std::to_string(v));
}

void append_double(ByteWriter& w, double v) {
    char buf[40];
    int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    w.text(std::string_view(buf, static_cast<std::size_t>(n)));
}

const char* tag_name(ValueTag t) {
    switch (t) {
        case ValueTag::Null: return "null";
        case ValueTag::Bool: return "bool";
        case ValueTag::Int: return "int";
        case ValueTag::Long: return "long";
        case ValueTag::Double: return "double";
        case ValueTag::Str: return "string";
        case ValueTag::Ref: return "ref";
    }
    return "?";
}

ValueTag tag_from_name(const std::string& name) {
    if (name == "null") return ValueTag::Null;
    if (name == "bool") return ValueTag::Bool;
    if (name == "int") return ValueTag::Int;
    if (name == "long") return ValueTag::Long;
    if (name == "double") return ValueTag::Double;
    if (name == "string") return ValueTag::Str;
    if (name == "ref") return ValueTag::Ref;
    throw CodecError("soapx: unknown value type " + name);
}

void encode_value(ByteWriter& w, std::string_view element, const MarshalledValue& v) {
    append_text(w, "<");
    append_text(w, element);
    append_text(w, " type=\"");
    append_text(w, tag_name(v.tag));
    append_text(w, "\"");
    switch (v.tag) {
        case ValueTag::Ref:
            append_text(w, " node=\"");
            append_int(w, v.ref_node);
            append_text(w, "\" oid=\"");
            append_int(w, v.ref_oid);
            append_text(w, "\" class=\"");
            append_text(w, xml_escape(v.ref_class));
            append_text(w, "\">");
            break;
        case ValueTag::Null:
            append_text(w, ">");
            break;
        case ValueTag::Bool:
            append_text(w, ">");
            append_text(w, v.b ? "true" : "false");
            break;
        case ValueTag::Int:
            append_text(w, ">");
            append_int(w, v.i);
            break;
        case ValueTag::Long:
            append_text(w, ">");
            append_int(w, v.j);
            break;
        case ValueTag::Double:
            append_text(w, ">");
            append_double(w, v.d);
            break;
        case ValueTag::Str:
            append_text(w, ">");
            append_text(w, xml_escape(v.s));
            break;
    }
    append_text(w, "</");
    append_text(w, element);
    append_text(w, ">");
}

const char* kind_name(RequestKind k) {
    switch (k) {
        case RequestKind::Invoke: return "invoke";
        case RequestKind::Create: return "create";
        case RequestKind::Discover: return "discover";
    }
    return "?";
}

RequestKind kind_from_name(const std::string& name) {
    if (name == "invoke") return RequestKind::Invoke;
    if (name == "create") return RequestKind::Create;
    if (name == "discover") return RequestKind::Discover;
    throw CodecError("soapx: unknown request kind " + name);
}

/// Parses `text` as one whole number token within `Num`'s range: no sign
/// on unsigned fields, no trailing bytes, no empty value.  Everything the
/// encoder writes (std::to_string, and "%.17g" including inf and nan)
/// round-trips.
template <typename Num>
Num parse_number(const std::string& text, std::string_view what) {
    if (const std::optional<Num> v = parse_whole<Num>(text)) return *v;
    throw CodecError("soapx: bad number " + std::string(what) + "=\"" + text + "\"");
}

// ---- a tiny element parser (handles exactly what we emit) ---------------

struct Element {
    std::string name;
    std::map<std::string, std::string> attrs;
    std::string text;                // concatenated character data
    std::vector<Element> children;

    const std::string& attr(const std::string& key) const {
        auto it = attrs.find(key);
        if (it == attrs.end()) throw CodecError("soapx: missing attribute " + key);
        return it->second;
    }

    /// Optional attribute: `fallback` when absent (reliability extension
    /// attributes are only emitted when nonzero).
    const std::string& attr_or(const std::string& key,
                               const std::string& fallback) const {
        auto it = attrs.find(key);
        return it == attrs.end() ? fallback : it->second;
    }

    template <typename Num>
    Num number(const std::string& key) const {
        return parse_number<Num>(attr(key), key);
    }
};

// The scanner walks the wire bytes in place (string_view over the Bytes
// payload) — decode no longer copies the document into a std::string
// before parsing.
class Scanner {
public:
    explicit Scanner(std::string_view text) : text_(text) {}

    Element parse_document() {
        Element root = parse_element();
        skip_ws();
        if (pos_ != text_.size()) throw CodecError("soapx: trailing content");
        return root;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    [[noreturn]] void fail(const std::string& what) {
        throw CodecError("soapx: " + what + " at offset " + std::to_string(pos_));
    }

    Element parse_element() {
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != '<') fail("expected '<'");
        ++pos_;
        Element el;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_'))
            el.name += text_[pos_++];
        if (el.name.empty()) fail("empty element name");
        // Attributes.
        while (true) {
            skip_ws();
            if (pos_ >= text_.size()) fail("unterminated tag");
            if (text_[pos_] == '>') {
                ++pos_;
                break;
            }
            if (text_[pos_] == '/') {
                // self-closing
                ++pos_;
                if (pos_ >= text_.size() || text_[pos_] != '>') fail("bad self-close");
                ++pos_;
                return el;
            }
            std::string key;
            while (pos_ < text_.size() && text_[pos_] != '=' &&
                   !std::isspace(static_cast<unsigned char>(text_[pos_])))
                key += text_[pos_++];
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '=') fail("expected '='");
            ++pos_;
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected '\"'");
            ++pos_;
            const std::size_t start = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
            if (pos_ >= text_.size()) fail("unterminated attribute");
            el.attrs[key] = xml_unescape(text_.substr(start, pos_ - start));
            ++pos_;
        }
        // Content: text and child elements until matching close tag.
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated element " + el.name);
            if (text_[pos_] == '<') {
                if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
                    pos_ += 2;
                    const std::size_t start = pos_;
                    while (pos_ < text_.size() && text_[pos_] != '>') ++pos_;
                    if (pos_ >= text_.size()) fail("unterminated close tag");
                    std::string_view close = text_.substr(start, pos_ - start);
                    ++pos_;
                    if (close != el.name)
                        fail("mismatched close tag " + std::string(close) + " for " +
                             el.name);
                    el.text = xml_unescape(el.text);
                    return el;
                }
                el.children.push_back(parse_element());
            } else {
                el.text += text_[pos_++];
            }
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

MarshalledValue decode_value(const Element& el) {
    MarshalledValue v;
    v.tag = tag_from_name(el.attr("type"));
    switch (v.tag) {
        case ValueTag::Null: break;
        case ValueTag::Bool: v.b = el.text == "true"; break;
        case ValueTag::Int: v.i = parse_number<std::int32_t>(el.text, el.name); break;
        case ValueTag::Long: v.j = parse_number<std::int64_t>(el.text, el.name); break;
        case ValueTag::Double: v.d = parse_number<double>(el.text, el.name); break;
        case ValueTag::Str: v.s = el.text; break;
        case ValueTag::Ref:
            v.ref_node = el.number<std::int32_t>("node");
            v.ref_oid = el.number<std::uint64_t>("oid");
            v.ref_class = el.attr("class");
            break;
    }
    return v;
}

const Element& only_child(const Element& el, const char* name) {
    if (el.children.size() != 1 || el.children[0].name != name)
        throw CodecError(std::string("soapx: expected single <") + name + "> in <" +
                         el.name + ">");
    return el.children[0];
}

std::string_view as_text(const Bytes& data) {
    if (data.empty()) return {};
    return std::string_view(reinterpret_cast<const char*>(data.data()), data.size());
}

}  // namespace

const std::string& SoapxCodec::protocol() const {
    static const std::string name = "SOAP";
    return name;
}

void SoapxCodec::encode_request_into(const CallRequest& req, ByteWriter& w) const {
    append_text(w, "<Envelope><Body><Request kind=\"");
    append_text(w, kind_name(req.kind));
    append_text(w, "\" id=\"");
    append_int(w, req.request_id);
    append_text(w, "\" src=\"");
    append_int(w, req.src_node);
    append_text(w, "\" target=\"");
    append_int(w, req.target_oid);
    append_text(w, "\" class=\"");
    append_text(w, xml_escape(req.cls));
    append_text(w, "\" method=\"");
    append_text(w, xml_escape(req.method));
    append_text(w, "\" desc=\"");
    append_text(w, xml_escape(req.desc));
    append_text(w, "\"");
    // Reliability attributes only appear when set, so base-protocol
    // traffic keeps its original byte size (EXPERIMENTS.md E5).
    if (req.attempt != 0) {
        append_text(w, " attempt=\"");
        append_int(w, req.attempt);
        append_text(w, "\"");
    }
    if (req.deadline_us != 0) {
        append_text(w, " deadline=\"");
        append_int(w, req.deadline_us);
        append_text(w, "\"");
    }
    append_text(w, ">");
    for (const MarshalledValue& a : req.args) encode_value(w, "arg", a);
    append_text(w, "</Request></Body></Envelope>");
}

CallRequest SoapxCodec::decode_request(const Bytes& data) const {
    Element envelope = Scanner(as_text(data)).parse_document();
    if (envelope.name != "Envelope") throw CodecError("soapx: expected <Envelope>");
    const Element& request = only_child(only_child(envelope, "Body"), "Request");
    CallRequest req;
    req.kind = kind_from_name(request.attr("kind"));
    req.request_id = request.number<std::uint64_t>("id");
    req.src_node = request.number<std::int32_t>("src");
    req.target_oid = request.number<std::uint64_t>("target");
    req.cls = request.attr("class");
    req.method = request.attr("method");
    req.desc = request.attr("desc");
    static const std::string kZero = "0";
    req.attempt = parse_number<std::uint32_t>(request.attr_or("attempt", kZero), "attempt");
    req.deadline_us =
        parse_number<std::uint64_t>(request.attr_or("deadline", kZero), "deadline");
    for (const Element& child : request.children) {
        if (child.name != "arg") throw CodecError("soapx: unexpected <" + child.name + ">");
        req.args.push_back(decode_value(child));
    }
    return req;
}

void SoapxCodec::encode_reply_into(const CallReply& reply, ByteWriter& w) const {
    append_text(w, "<Envelope><Body><Reply id=\"");
    append_int(w, reply.request_id);
    append_text(w, "\">");
    if (reply.is_fault) {
        append_text(w, "<fault class=\"");
        append_text(w, xml_escape(reply.fault_class));
        append_text(w, "\">");
        append_text(w, xml_escape(reply.fault_msg));
        append_text(w, "</fault>");
    } else {
        encode_value(w, "result", reply.result);
    }
    append_text(w, "</Reply></Body></Envelope>");
}

CallReply SoapxCodec::decode_reply(const Bytes& data) const {
    Element envelope = Scanner(as_text(data)).parse_document();
    if (envelope.name != "Envelope") throw CodecError("soapx: expected <Envelope>");
    const Element& reply_el = only_child(only_child(envelope, "Body"), "Reply");
    CallReply reply;
    reply.request_id = reply_el.number<std::uint64_t>("id");
    if (reply_el.children.size() != 1)
        throw CodecError("soapx: reply must have exactly one child");
    const Element& payload = reply_el.children[0];
    if (payload.name == "fault") {
        reply.is_fault = true;
        reply.fault_class = payload.attr("class");
        reply.fault_msg = payload.text;
    } else if (payload.name == "result") {
        reply.result = decode_value(payload);
    } else {
        throw CodecError("soapx: unexpected reply payload <" + payload.name + ">");
    }
    return reply;
}

}  // namespace rafda::net
