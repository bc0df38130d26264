// The experiment runner: `experiments [E1 ... E15]`.
//
// Every experiment is a plain function over seeded simulations.  It prints
// its tables, with any host wall times in rows labelled advisory, then
// writes its deterministic BENCH_<id>.json sidecar to the working
// directory and prints the same JSON as its last stdout line.  With no
// arguments every experiment runs, in id order.  Exit status: 0 when all
// ran and passed their self-checks, 1 for an unknown id, 2 when an
// experiment failed a self-check or threw.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

namespace rafda::bench {
int e1();
int e2();
int e3();
int e4();
int e5();
int e6();
int e7();
int e8();
int e9();
int e10();
int e11();
int e12();
int e13();
int e14();
int e15();
}  // namespace rafda::bench

namespace {

struct Experiment {
    const char* id;
    int (*run)();
};

constexpr Experiment kExperiments[] = {
    {"E1", rafda::bench::e1},   {"E2", rafda::bench::e2},   {"E3", rafda::bench::e3},
    {"E4", rafda::bench::e4},   {"E5", rafda::bench::e5},   {"E6", rafda::bench::e6},
    {"E7", rafda::bench::e7},   {"E8", rafda::bench::e8},   {"E9", rafda::bench::e9},
    {"E10", rafda::bench::e10}, {"E11", rafda::bench::e11}, {"E12", rafda::bench::e12},
    {"E13", rafda::bench::e13}, {"E14", rafda::bench::e14}, {"E15", rafda::bench::e15},
};

}  // namespace

int main(int argc, char** argv) {
    std::vector<const Experiment*> chosen;
    for (int k = 1; k < argc; ++k) {
        const Experiment* found = nullptr;
        for (const Experiment& e : kExperiments)
            if (argv[k] == std::string(e.id)) found = &e;
        if (!found) {
            std::fprintf(stderr, "usage: %s [E1 ... E15]\nunknown experiment '%s'\n",
                         argv[0], argv[k]);
            return 1;
        }
        chosen.push_back(found);
    }
    if (chosen.empty())
        for (const Experiment& e : kExperiments) chosen.push_back(&e);

    int status = 0;
    for (std::size_t k = 0; k < chosen.size(); ++k) {
        if (k) std::printf("\n");
        const Experiment& e = *chosen[k];
        try {
            if (e.run() != 0) {
                std::fprintf(stderr, "%s: self-check failed\n", e.id);
                status = 2;
            }
        } catch (const std::exception& ex) {
            std::fprintf(stderr, "%s: %s\n", e.id, ex.what());
            status = 2;
        }
        std::fflush(stdout);
    }
    return status;
}
