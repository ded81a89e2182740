/**
 * @file
 * On-device event recording and offline replay.
 *
 * EventRecorder is the lightweight tap installed on the Binder
 * channel (paper: "future android versions can instrument the
 * Binder instances ... to dump all the events"); it accumulates the
 * EventTrace that the device uploads.
 *
 * Replayer is the cloud side: it feeds a recorded event stream
 * through a *fresh* instance of the game "as if the user is playing
 * the game once again in the emulator" and captures the complete
 * input/output record of every handler execution.
 */

#ifndef SNIP_TRACE_RECORDER_H
#define SNIP_TRACE_RECORDER_H

#include "events/event.h"
#include "games/game.h"
#include "trace/profile.h"

namespace snip {
namespace trace {

/** Accumulates the on-device event stream. */
class EventRecorder
{
  public:
    /** @param game_name Name stamped into the trace. */
    explicit EventRecorder(std::string game_name);

    /** Record one delivered event (Binder tap). */
    void onEvent(const events::EventObject &ev);

    /** The trace collected so far. */
    const EventTrace &trace() const { return trace_; }

    /** Number of recorded events. */
    size_t size() const { return trace_.events.size(); }

    /** Drop everything recorded so far. */
    void clear() { trace_.events.clear(); }

  private:
    EventTrace trace_;
};

/** Offline replay: event stream -> full I/O profile. */
class Replayer
{
  public:
    /**
     * Replay @p trace against @p game (which is reset() first so
     * the emulator reproduces the original session's state
     * evolution) and return the full profile. Every event must pass
     * Game::checkEvent (run check() first on untrusted traces).
     */
    static Profile replay(const EventTrace &trace, games::Game &game);

    /**
     * Game::checkEvent over every event of @p trace: the first
     * event that does not fit @p game's compiled layout, as an
     * error.
     */
    static util::Status check(const EventTrace &trace,
                              const games::Game &game);
};

}  // namespace trace
}  // namespace snip

#endif  // SNIP_TRACE_RECORDER_H
