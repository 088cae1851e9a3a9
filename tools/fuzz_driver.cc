/**
 * @file
 * Deterministic differential-fuzzing driver over the fuzz-target
 * table (testkit::fuzzTargets()).
 *
 * Sweep mode (default):
 *     fuzz_driver --iterations=1000 --seed=1 [--seconds=60]
 *                 [--only=KIND] [--max-size=40]
 * runs the bounded mixed sweep, every row at its own cadence, printing
 * a repro line for every divergence and exiting 1 if any was found.
 * --only=KIND runs that one row on every iteration instead.
 *
 * Replay mode: paste a repro line printed by a failing run,
 *     fuzz_driver --seed=S [--size=N] --kind=KIND[:MIX]
 * and the driver reruns exactly that instance. A row that reads the
 * scalar mix, given none, runs under every mix; a row without a size
 * dimension, given --size=N > 1, runs N consecutive seeds from S.
 *
 * An unknown --kind or --only value, or any unknown argument, exits 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "gpusim/perf_model.hh"
#include "testkit/testkit.hh"

namespace {

using namespace gzkp;

struct Args {
    std::uint64_t seed = 1;
    std::uint64_t iterations = 100;
    double seconds = 0;
    std::size_t maxSize = 40;
    long long size = -1; //!< -1 = not given
    std::string kind; //!< --kind or --size switches to replay mode
    std::string only;
};

bool
parseOne(Args &a, const std::string &arg)
{
    auto val = [&](const char *key) -> const char * {
        std::size_t n = std::strlen(key);
        if (arg.compare(0, n, key) == 0 && arg.size() > n &&
            arg[n] == '=')
            return arg.c_str() + n + 1;
        return nullptr;
    };
    if (const char *v = val("--seed"))
        a.seed = std::strtoull(v, nullptr, 0);
    else if (const char *v = val("--iterations"))
        a.iterations = std::strtoull(v, nullptr, 0);
    else if (const char *v = val("--seconds"))
        a.seconds = std::strtod(v, nullptr);
    else if (const char *v = val("--max-size"))
        a.maxSize = std::strtoull(v, nullptr, 0);
    else if (const char *v = val("--size"))
        a.size = std::strtoll(v, nullptr, 0);
    else if (const char *v = val("--kind"))
        a.kind = v;
    else if (const char *v = val("--only"))
        a.only = v;
    else
        return false;
    return true;
}

/** Print the table's kinds after a usage error; returns exit code 2. */
int
kindsUsage()
{
    std::fprintf(stderr, "kinds:");
    for (const auto &t : testkit::fuzzTargets())
        std::fprintf(stderr, " %s%s", t.kind.c_str(),
                     t.mixed ? "[:MIX]" : "");
    std::fprintf(stderr, "\nmixes:");
    for (std::size_t i = 0; i < testkit::kScalarMixCount; ++i)
        std::fprintf(stderr, " %s", testkit::name(testkit::ScalarMix(i)));
    std::fprintf(stderr,
                 "\nusage: fuzz_driver [--iterations=N] [--seed=S] "
                 "[--seconds=T] [--max-size=N] [--only=KIND]\n"
                 "       fuzz_driver --seed=S [--size=N] "
                 "--kind=KIND[:MIX]   (replay)\n");
    return 2;
}

int
report(const testkit::FuzzReport &rep)
{
    std::printf("fuzz: %llu iterations, %zu divergence(s)\n",
                (unsigned long long)rep.iterations,
                rep.failures.size());
    for (const auto &f : rep.failures) {
        std::printf("  [%s] %s\n    repro: fuzz_driver %s\n",
                    f.target.c_str(), f.detail.c_str(),
                    f.repro.c_str());
    }
    return rep.failures.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (!parseOne(a, argv[i])) {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return kindsUsage();
        }
    }

    // Any inconsistent KernelStats aborts the run instead of being
    // silently folded into a modeled time.
    gzkp::gpusim::setStrictInvariants(true);

    // Honor an ambient GZKP_FAULTS plan; fault-target iterations
    // install their own scoped plans on top and restore it after.
    if (auto s = gzkp::faultsim::installFromEnv(); !s.isOk()) {
        std::fprintf(stderr, "bad GZKP_FAULTS: %s\n",
                     s.toString().c_str());
        return 2;
    }

    if (!a.kind.empty() || a.size >= 0) {
        auto k = testkit::resolveFuzzKind(a.kind);
        if (!k) {
            std::fprintf(stderr, "unknown --kind=%s\n", a.kind.c_str());
            return kindsUsage();
        }
        std::size_t size = a.size > 0 ? std::size_t(a.size) : 0;
        std::printf("replaying --kind=%s from --seed=%llu\n",
                    a.kind.c_str(), (unsigned long long)a.seed);
        return report(testkit::replayFuzzKind(*k, a.seed, size));
    }

    testkit::FuzzOptions opt;
    opt.seed = a.seed;
    opt.iterations = a.iterations;
    opt.maxSeconds = a.seconds;
    opt.maxMsmSize = a.maxSize;
    if (!a.only.empty()) {
        const testkit::FuzzTarget *t = testkit::findFuzzTarget(a.only);
        if (t == nullptr) {
            std::fprintf(stderr, "unknown --only=%s\n", a.only.c_str());
            return kindsUsage();
        }
        opt.targets = {*t};
        opt.targets[0].every = 1; // every iteration
        opt.targets[0].offset = 0;
    }
    return report(testkit::fuzzAll(opt));
}
