#include "trace/recorder.h"

namespace snip {
namespace trace {

EventRecorder::EventRecorder(std::string game_name)
{
    trace_.game = std::move(game_name);
}

void
EventRecorder::onEvent(const events::EventObject &ev)
{
    trace_.events.push_back(ev);
}

Profile
Replayer::replay(const EventTrace &trace, games::Game &game)
{
    game.reset();
    Profile profile;
    profile.game = trace.game;
    profile.records.reserve(trace.events.size());
    for (const auto &ev : trace.events) {
        games::HandlerExecution ex = game.process(ev);
        game.applyOutputs(ex.outputs);
        profile.records.push_back(std::move(ex));
    }
    return profile;
}

util::Status
Replayer::check(const EventTrace &trace, const games::Game &game)
{
    for (const auto &ev : trace.events) {
        util::Status st = game.checkEvent(ev);
        if (!st.ok())
            return st;
    }
    return util::Status::Ok();
}

}  // namespace trace
}  // namespace snip
