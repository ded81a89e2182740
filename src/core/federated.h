/**
 * @file
 * Federated SNIP backend (paper §VII-C future direction:
 * "techniques such as federated AI can be explored ... for reducing
 * the backend overheads as well as performing collective learning").
 *
 * Centralized backend (the paper's evaluated design): every user
 * uploads their raw event stream; the cloud replays all of them and
 * runs one PFI selection over the merged profile.
 *
 * Federated backend: each user runs PFI selection on their *own*
 * profile locally; only the per-type selected-field votes and the
 * locally-projected table entries leave the device. The server
 * majority-votes the necessary-input sets and unions the tables.
 * Raw traces never leave the device and the per-device selection
 * work is a fraction of the centralized job.
 */

#ifndef SNIP_CORE_FEDERATED_H
#define SNIP_CORE_FEDERATED_H

#include <string>
#include <vector>

#include "core/snip.h"
#include "util/bytes.h"

namespace snip {
namespace core {

/** Federation knobs. */
struct FederatedConfig {
    /** Number of participating users. */
    int num_users = 5;
    /** Play time recorded per user (s). */
    double session_s = 150.0;
    uint64_t seed = 0xfede7a7eULL;
    /** Fraction of users that must select a field to keep it. */
    double vote_fraction = 0.5;
    /** Per-user selection config. */
    SnipConfig snip;
};

/** What the backend consumed/transferred. */
struct BackendCost {
    /** Profile records pushed through one selection job (the
     *  dominant backend compute term — paper: 2 days/2 min trace). */
    uint64_t selection_records = 0;
    /** Raw bytes uploaded from devices. */
    uint64_t uploaded_bytes = 0;
};

/** Outcome of building a deployable model via either backend. */
struct FederatedResult {
    SnipModel model;
    BackendCost cost;
    /** Per event type: how many users voted for each kept field. */
    std::vector<std::pair<events::EventType, size_t>> deployed_types;
};

/**
 * Votes a field needs to clear `vote_fraction` of `num_users`:
 * ceil(vote_fraction * num_users), computed with exact integer
 * arithmetic on the double's mantissa — no epsilon fudge — so e.g.
 * 0.5 of 2 users is exactly 1 vote and 1.0 of 10 users is exactly
 * 10, regardless of how the product rounds in floating point.
 * Non-positive fractions need 1 vote (a kept field must be selected
 * by someone); num_users <= 0 needs 0.
 */
size_t federatedVotesNeeded(double vote_fraction, int num_users);

/**
 * One device's upload: @p profile projected onto the agreed
 * selections @p types in a local MemoTable, frozen, and packed as an
 * SNPM payload appended to @p out. The server decodes it and unions
 * the arena with MemoTable::mergeFrom(const FrozenTable &).
 */
void packDeviceUpload(const std::string &game_name,
                      const events::FieldSchema &schema,
                      const std::vector<TypeModel> &types,
                      const trace::Profile &profile,
                      util::ByteBuffer &out);

/**
 * Build a model the centralized way: merge all users' replayed
 * profiles and run a single selection.
 *
 * @param game_name Which game all users play.
 */
FederatedResult buildCentralized(const std::string &game_name,
                                 const FederatedConfig &cfg = {});

/**
 * Build a model the federated way: per-user selection, majority
 * vote on fields, union of locally projected tables.
 */
FederatedResult buildFederated(const std::string &game_name,
                               const FederatedConfig &cfg = {});

/**
 * Evaluate a deployable model on a held-out user (a seed none of
 * the training users used).
 */
struct FederatedEval {
    double coverage = 0.0;
    double error_field_rate = 0.0;
    double energy_savings = 0.0;
};
FederatedEval evaluateModel(const std::string &game_name,
                            const SnipModel &model, uint64_t seed,
                            double session_s = 45.0);

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_FEDERATED_H
