#include "model/type.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace rafda::model {
namespace {

TEST(TypeDesc, ParsePrimitives) {
    EXPECT_EQ(TypeDesc::parse("V").kind(), Kind::Void);
    EXPECT_EQ(TypeDesc::parse("Z").kind(), Kind::Bool);
    EXPECT_EQ(TypeDesc::parse("I").kind(), Kind::Int);
    EXPECT_EQ(TypeDesc::parse("J").kind(), Kind::Long);
    EXPECT_EQ(TypeDesc::parse("D").kind(), Kind::Double);
    EXPECT_EQ(TypeDesc::parse("S").kind(), Kind::Str);
}

TEST(TypeDesc, ParseReference) {
    TypeDesc t = TypeDesc::parse("LX;");
    EXPECT_TRUE(t.is_ref());
    EXPECT_EQ(t.class_name(), "X");
    EXPECT_EQ(TypeDesc::parse("LX_O_Int;").class_name(), "X_O_Int");
}

TEST(TypeDesc, DescriptorRoundTrip) {
    for (const char* d : {"V", "Z", "I", "J", "D", "S", "LX;", "Lpkg.Cls;"})
        EXPECT_EQ(TypeDesc::parse(d).descriptor(), d);
}

TEST(TypeDesc, RejectsMalformed) {
    EXPECT_THROW(TypeDesc::parse(""), ParseError);
    EXPECT_THROW(TypeDesc::parse("Q"), ParseError);
    EXPECT_THROW(TypeDesc::parse("LX"), ParseError);   // unterminated
    EXPECT_THROW(TypeDesc::parse("II"), ParseError);   // trailing
    EXPECT_THROW(TypeDesc::parse("LX;I"), ParseError); // trailing
}

TEST(TypeDesc, ClassNameOnNonRefThrows) {
    EXPECT_THROW(TypeDesc::int_().class_name(), VerifyError);
}

TEST(TypeDesc, NumericPredicate) {
    EXPECT_TRUE(TypeDesc::int_().is_numeric());
    EXPECT_TRUE(TypeDesc::long_().is_numeric());
    EXPECT_TRUE(TypeDesc::double_().is_numeric());
    EXPECT_FALSE(TypeDesc::bool_().is_numeric());
    EXPECT_FALSE(TypeDesc::str().is_numeric());
    EXPECT_FALSE(TypeDesc::ref("X").is_numeric());
}

TEST(MethodSig, ParseAndPrint) {
    MethodSig sig = MethodSig::parse("(JLY;)I");
    ASSERT_EQ(sig.params().size(), 2u);
    EXPECT_EQ(sig.params()[0].kind(), Kind::Long);
    EXPECT_EQ(sig.params()[1].class_name(), "Y");
    EXPECT_EQ(sig.ret().kind(), Kind::Int);
    EXPECT_EQ(sig.descriptor(), "(JLY;)I");
}

TEST(MethodSig, EmptyParams) {
    MethodSig sig = MethodSig::parse("()V");
    EXPECT_TRUE(sig.params().empty());
    EXPECT_TRUE(sig.ret().is_void());
}

TEST(MethodSig, RejectsMalformed) {
    EXPECT_THROW(MethodSig::parse("I"), ParseError);       // no parens
    EXPECT_THROW(MethodSig::parse("(I"), ParseError);      // unterminated
    EXPECT_THROW(MethodSig::parse("(V)I"), ParseError);    // void param
    EXPECT_THROW(MethodSig::parse("()"), ParseError);      // no return
    EXPECT_THROW(MethodSig::parse("()II"), ParseError);    // trailing
}

TEST(MethodSig, Equality) {
    EXPECT_EQ(MethodSig::parse("(I)V"), MethodSig::parse("(I)V"));
    EXPECT_NE(MethodSig::parse("(I)V"), MethodSig::parse("(J)V"));
}

/// Well-formed and malformed descriptor text alike, for the in-place
/// readers that must agree with parse() on every input.
const std::vector<std::string> kTypeTexts = {
    "V",  "Z",     "I",      "J",    "D",         "S",     "LX;",   "LLong.Name_O_Proxy_RMI;",
    "L;", "[I",    "[[LX;",  "[[[S", "[LA;",      "",      "Q",     "LX",
    "[",  "[V",    "[[V",    "II",   "LX;I",      "LA;B;", "[LX;;", "X;",
    "()V", "(I)V", "(JLY;)I", "([LX;[[I)[S", "(LA;LB;)LC;", "()", "(I", "I)V",
    "(V)V", "()VV", "(LB)V", "([V)V", "(Q)I", "(", ")V", "(II)LX",
};

TEST(TypeDesc, InPlaceReadersAgreeWithParse) {
    for (const std::string& text : kTypeTexts) {
        std::optional<TypeDesc> parsed;
        std::string error;
        try {
            parsed = TypeDesc::parse(text);
        } catch (const ParseError& e) {
            error = e.what();
        }
        if (!parsed) {
            try {
                TypeDesc::base_of(text);
                ADD_FAILURE() << "base_of accepted " << text;
            } catch (const ParseError& e) {
                EXPECT_EQ(std::string(e.what()), error) << text;
            }
            continue;
        }
        TypeDesc base = *parsed;
        while (base.is_array()) base = base.element();
        for (const BaseType b : {TypeDesc::base_of(text), parsed->base()}) {
            EXPECT_EQ(b.kind, base.kind()) << text;
            EXPECT_EQ(b.class_name, base.is_ref() ? base.class_name() : "") << text;
        }
        EXPECT_EQ(parsed->descriptor_size(), parsed->descriptor().size()) << text;
        for (const std::string& other : kTypeTexts)
            EXPECT_EQ(parsed->descriptor_is(other), parsed->descriptor() == other)
                << text << " vs " << other;
    }
}

TEST(MethodSig, InPlaceReadersAgreeWithParse) {
    for (const std::string& text : kTypeTexts) {
        std::optional<MethodSig> parsed;
        std::string error;
        try {
            parsed = MethodSig::parse(text);
        } catch (const ParseError& e) {
            error = e.what();
        }
        if (!parsed) {
            try {
                MethodSig::shape_of(text);
                ADD_FAILURE() << "shape_of accepted " << text;
            } catch (const ParseError& e) {
                EXPECT_EQ(std::string(e.what()), error) << text;
            }
            continue;
        }
        const MethodShape shape = MethodSig::shape_of(text);
        EXPECT_EQ(shape.params, parsed->params().size()) << text;
        EXPECT_EQ(shape.returns_value, !parsed->ret().is_void()) << text;
        for (const std::string& other : kTypeTexts)
            EXPECT_EQ(parsed->descriptor_is(other), parsed->descriptor() == other)
                << text << " vs " << other;
    }
    // A signature built from parts compares like its concatenated text.
    const MethodSig sig({TypeDesc::array(TypeDesc::ref("A")), TypeDesc::int_()},
                        TypeDesc::ref("B"));
    EXPECT_TRUE(sig.descriptor_is("([LA;I)LB;"));
    EXPECT_FALSE(sig.descriptor_is("([LA;I)LB"));
    EXPECT_FALSE(sig.descriptor_is("([LA;J)LB;"));
    EXPECT_FALSE(sig.descriptor_is("([LA;I)LB;V"));
}

}  // namespace
}  // namespace rafda::model
