#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "trace/columnar_log.h"
#include "util/logging.h"

namespace snip {
namespace bench {

BenchOptions
parseOptions(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            opts.quick = true;
        } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
            opts.csv_path = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            opts.threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
            if (opts.threads == 0)
                util::fatal("--threads must be >= 1");
        } else if (std::strcmp(argv[i], "--obs-json") == 0 &&
                   i + 1 < argc) {
            opts.obs_json = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-cache") == 0 &&
                   i + 1 < argc) {
            opts.trace_cache = argv[++i];
        } else if (std::strcmp(argv[i], "--epochs") == 0 &&
                   i + 1 < argc) {
            opts.epochs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
            if (opts.epochs == 0)
                util::fatal("--epochs must be >= 1");
        } else {
            util::fatal("unknown argument '%s' (expected --quick, "
                        "--csv <path>, --seed <n>, --threads <n>, "
                        "--obs-json <path>, --trace-cache <dir>, "
                        "--epochs <n>)",
                        argv[i]);
        }
    }
    if (opts.trace_cache.empty()) {
        if (const char *env = std::getenv("SNIP_TRACE_CACHE"))
            opts.trace_cache = env;
    }
    return opts;
}

namespace {

/** Cache key of one baseline recording: game, seed, duration. */
std::string
traceCachePath(const std::string &dir, const std::string &game,
               uint64_t seed, double secs)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "-s%llu-%gs.snct",
                  static_cast<unsigned long long>(seed), secs);
    return dir + "/" + game + buf;
}

}  // namespace

ProfiledGame
profileGame(const std::string &game_name, const BenchOptions &opts,
            double profile_s)
{
    ProfiledGame pg;
    pg.game = games::makeGame(game_name);

    double secs = profile_s > 0 ? profile_s : opts.profileSeconds();
    std::string cache_path;
    if (!opts.trace_cache.empty()) {
        cache_path = traceCachePath(opts.trace_cache, game_name,
                                    opts.seed, secs);
        auto log = trace::ColumnarLog::open(cache_path);
        if (log.ok() && log.value()->game() == game_name) {
            trace::EventTrace tr;
            log.value()->toTrace(&tr);
            auto replica = games::makeGame(game_name);
            pg.profile = trace::Replayer::replay(tr, *replica);
            return pg;
        }
    }

    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = secs;
    cfg.record_events = true;
    cfg.seed = opts.seed;
    core::SessionResult res =
        core::runSession(*pg.game, baseline, cfg);

    if (!cache_path.empty()) {
        // Best-effort: a failed write (missing dir, full disk) only
        // costs the next run a re-record.
        std::vector<uint8_t> bytes;
        if (trace::ColumnarLog::encode(res.trace, &bytes).ok())
            (void)trace::ColumnarLog::save(bytes, cache_path);
    }

    auto replica = games::makeGame(game_name);
    pg.profile = trace::Replayer::replay(res.trace, *replica);
    return pg;
}

std::vector<ProfiledGame>
profileAllGames(const BenchOptions &opts, double profile_s)
{
    const auto &names = games::allGameNames();
    std::vector<ProfiledGame> pgs(names.size());
    opts.runner().forEach(names.size(), [&](size_t i) {
        pgs[i] = profileGame(names[i], opts, profile_s);
    });
    return pgs;
}

core::SnipModel
buildModel(const ProfiledGame &pg, const BenchOptions &opts,
           obs::Registry *obs)
{
    core::SnipConfig cfg;
    cfg.seed = util::mixCombine(opts.seed, 0x5e1ec7ULL);
    cfg.overrides.force_keep = pg.game->params().recommended_overrides;
    // --threads governs training-side (Shrink) parallelism too;
    // selection output does not depend on it.
    cfg.threads = opts.threads;
    cfg.obs = obs;
    return core::buildSnipModel(pg.profile, *pg.game, cfg);
}

void
writeObsJson(const obs::Registry &reg, const BenchOptions &opts)
{
    if (opts.obs_json.empty())
        return;
    // The pool gauges snapshot process-lifetime totals; stamp them
    // into an export-side copy (after any shard merging in the
    // bench) so a merged registry reports them exactly once and the
    // caller's registry stays untouched.
    obs::Registry out;
    out.merge(reg);
    obs::exportTaskPoolStats(out);
    util::Status st = obs::writeJsonFile(out, opts.obs_json);
    if (!st.ok())
        util::fatal("--obs-json: %s", st.message().c_str());
    std::printf("obs metrics -> %s\n", opts.obs_json.c_str());
}

core::SimulationConfig
evalConfig(const BenchOptions &opts)
{
    core::SimulationConfig cfg;
    cfg.duration_s = opts.evalSeconds();
    cfg.seed = util::mixCombine(opts.seed, 0xe7a1ULL);
    return cfg;
}

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::printf("=== %s ===\n", title.c_str());
    std::printf("reproduces: %s (SNIP, IISWC 2020)\n\n",
                paper_ref.c_str());
}

}  // namespace bench
}  // namespace snip
