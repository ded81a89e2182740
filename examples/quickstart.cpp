/**
 * @file
 * Quickstart: the whole SNIP pipeline in ~50 lines.
 *
 *   1. Play a game (baseline) while recording its event stream.
 *   2. Replay the stream offline to build the full I/O profile.
 *   3. Run PFI feature selection and build the deployable table.
 *   4. Play again with SNIP short-circuiting and compare energy.
 *
 * Build & run:  ./build/examples/quickstart [game_name]
 */

#include <cstdio>

#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "util/bytes.h"
#include "util/table_printer.h"
#include "util/units.h"

using namespace snip;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "ab_evolution";
    auto game = games::makeGame(name);
    std::printf("game: %s (%u input locations, %.0f events/s)\n",
                game->displayName().c_str(),
                static_cast<unsigned>(game->schema().size()),
                game->totalEventRate());

    // 1. Baseline session, recording the event stream on-device.
    core::BaselineScheme baseline;
    core::SimulationConfig profile_cfg;
    profile_cfg.duration_s = 180.0;
    profile_cfg.record_events = true;
    core::SessionResult base =
        core::runSession(*game, baseline, profile_cfg);
    std::printf("baseline: %s over %s (%s avg), %llu events\n",
                util::formatEnergy(base.report.total()).c_str(),
                util::formatTime(base.report.elapsed()).c_str(),
                util::formatPower(base.report.averagePower()).c_str(),
                static_cast<unsigned long long>(base.stats.events));

    // 2. Offline replay: the "cloud emulator" reconstructs every
    //    handler execution's full inputs and outputs.
    auto replica = games::makeGame(name);
    trace::Profile profile =
        trace::Replayer::replay(base.trace, *replica);
    std::printf("profile: %zu records replayed offline\n",
                profile.records.size());

    // 3. PFI selection + table construction.
    core::SnipConfig snip_cfg;
    snip_cfg.overrides.force_keep =
        game->params().recommended_overrides;
    core::SnipModel model =
        core::buildSnipModel(profile, *game, snip_cfg);
    std::printf("model: %zu event types deployed, necessary inputs "
                "%llu B of %llu B, table %s\n",
                model.types.size(),
                static_cast<unsigned long long>(model.selectedBytes()),
                static_cast<unsigned long long>(
                    game->schema().totalInputBytes()),
                util::formatSize(
                    static_cast<double>(model.tableBytes()))
                    .c_str());

    // 4. Evaluate with SNIP against a fresh baseline session.
    core::SimulationConfig eval_cfg;
    eval_cfg.duration_s = 60.0;
    eval_cfg.seed = 0xeba1;
    core::BaselineScheme base2;
    double e_base = core::runSession(*game, base2, eval_cfg)
                        .report.total();
    core::SnipScheme snip(model);
    core::SessionResult res = core::runSession(*game, snip, eval_cfg);

    std::printf("\nSNIP: short-circuited %llu of %llu events "
                "(%.1f%% of execution), %.3f%% output fields wrong\n",
                static_cast<unsigned long long>(
                    res.stats.shortcircuits),
                static_cast<unsigned long long>(res.stats.events),
                100.0 * res.stats.coverageInstr(),
                100.0 * res.stats.errorFieldRate());
    std::printf("energy: %s -> %s  (%.1f%% saved)\n",
                util::formatEnergy(e_base).c_str(),
                util::formatEnergy(res.report.total()).c_str(),
                100.0 * (1.0 - res.report.total() / e_base));
    return 0;
}
