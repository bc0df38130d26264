#include "model/binio.hpp"

#include <gtest/gtest.h>

#include <iostream>

#include "corpus/program_gen.hpp"
#include "model/assembler.hpp"
#include "model/printer.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "transform/pipeline.hpp"

namespace rafda::model {
namespace {

void expect_equal(const ClassPool& a, const ClassPool& b) {
    ASSERT_EQ(a.all_names(), b.all_names());
    for (const std::string& name : a.all_names()) {
        // print_class gives a total, human-readable structural comparison.
        EXPECT_EQ(print_class(a.get(name)), print_class(b.get(name))) << name;
    }
}

TEST(BinIo, RoundTripsHandWrittenPool) {
    ClassPool pool;
    assemble_into(pool, R"(
special class Thr {
  field msg S
}
interface Api {
  method f (JLC;)D
}
class C implements Api {
  field private x I
  static field final s S
  ctor (I)V {
    load 0
    load 1
    putfield C.x I
    return
  }
  method f (JLC;)D {
  S:
    const 1.5
    returnvalue
  E:
    nop
  H:
    pop
    const 0.0
    returnvalue
    catch Thr from S to E using H
  }
  native static method peek ()I
  abstract method todo ()V
}
)");
    ClassPool loaded = load_pool(save_pool(pool));
    expect_equal(pool, loaded);
}

class BinIoSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinIoSweep, RoundTripsGeneratedAndTransformedPools) {
    corpus::ProgramParams params;
    params.seed = GetParam();
    params.classes = 3 + params.seed % 5;
    ClassPool pool = corpus::generate_program(params);
    expect_equal(pool, load_pool(save_pool(pool)));

    transform::PipelineResult result = transform::run_pipeline(pool);
    ClassPool loaded = load_pool(save_pool(result.pool));
    expect_equal(result.pool, loaded);
    // The loaded artefact is a complete program: it still verifies.
    EXPECT_TRUE(verify_pool_collect(loaded).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinIoSweep, ::testing::Range<std::uint64_t>(1, 9));

TEST(BinIo, RejectsBadMagic) {
    Bytes junk{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_THROW(load_pool(junk), CodecError);
}

TEST(BinIo, RejectsWrongVersion) {
    ClassPool pool;
    Bytes data = save_pool(pool);
    data[4] = 99;  // version lives after the 4-byte magic
    EXPECT_THROW(load_pool(data), CodecError);
}

TEST(BinIo, RejectsTruncation) {
    ClassPool pool;
    assemble_into(pool, "class A {\n field x I\n}\n");
    Bytes data = save_pool(pool);
    for (std::size_t cut : {data.size() - 1, data.size() / 2, std::size_t{7}}) {
        Bytes truncated(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_THROW(load_pool(truncated), CodecError) << "cut at " << cut;
    }
}

TEST(BinIo, RejectsTrailingBytes) {
    ClassPool pool;
    Bytes data = save_pool(pool);
    data.push_back(0);
    EXPECT_THROW(load_pool(data), CodecError);
}

TEST(BinIo, EmptyPool) {
    ClassPool pool;
    ClassPool loaded = load_pool(save_pool(pool));
    EXPECT_EQ(loaded.size(), 0u);
}

TEST(BinIoFuzz, ByteFlipsEndInProblemsOrATypedError) {
    // A .rirb file is untrusted input: seeded byte flips in a transformed
    // program's bytes must end in a problem list (possibly empty) or in a
    // CodecError/ParseError/VerifyError from loading or verifying — never
    // in a crash, a hang or another exception.  Under the sanitize preset
    // this also proves no out-of-bounds access or UB on the way.
    corpus::ProgramParams params;
    params.classes = 4;
    params.use_arrays = true;
    const transform::PipelineResult result =
        transform::run_pipeline(corpus::generate_program(params));
    const Bytes good = save_pool(result.pool);
    support::ThreadPool workers(2);

    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;  // deterministic, seedless
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 16;
    };
    int codec = 0, parse = 0, verify = 0, problems = 0, clean = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        Bytes bad = good;
        const int flips = 1 + static_cast<int>(next() % 3);
        for (int f = 0; f < flips; ++f)
            bad[next() % bad.size()] ^= static_cast<std::uint8_t>(1 + next() % 255);
        try {
            const ClassPool pool = load_pool(bad);
            const std::vector<std::string> found =
                verify_pool_collect(pool, trial % 2 ? &workers : nullptr);
            ++(found.empty() ? clean : problems);
        } catch (const CodecError&) {
            ++codec;
        } catch (const ParseError&) {
            ++parse;
        } catch (const VerifyError&) {
            ++verify;
        }
    }
    // The flips reach the verifier, not only the loader's checks.
    EXPECT_GT(codec, 0);
    EXPECT_GT(parse, 0);
    EXPECT_GT(problems, 0);
    EXPECT_GT(clean, 0);
    std::cout << "codec " << codec << ", parse " << parse << ", verify " << verify
              << ", problems " << problems << ", clean " << clean << "\n";
}

}  // namespace
}  // namespace rafda::model
