#include "support/faultinject.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "support/diag.h"
#include "support/strings.h"

namespace dms {

InjectedFault::InjectedFault(const std::string &site)
    : std::runtime_error("injected fault at " + site), site_(site)
{
}

namespace {

/** SplitMix64 finalizer: the per-hit firing hash. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
matches(const std::string &pattern, const char *site)
{
    if (!pattern.empty() && pattern.back() == '*')
        return std::string_view(site).substr(
                   0, pattern.size() - 1) ==
               std::string_view(pattern).substr(0,
                                                pattern.size() - 1);
    return pattern == site;
}

/**
 * Counters + matched spec for one concrete site name. The hit
 * counter is the determinism anchor: hit i of a site fires iff
 * mix64(seed ^ fnv(site) ^ i) < rate * 2^64, independent of which
 * thread observes the hit.
 */
struct SiteState
{
    const FaultSpec *spec = nullptr; ///< null: site never fires
    std::uint64_t threshold = 0;     ///< rate scaled to 64 bits
    std::uint64_t nameHash = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fired{0};
};

struct ArmedPlan
{
    FaultPlan plan;
    std::mutex mu; ///< guards sites (lazily populated)
    std::map<std::string, std::unique_ptr<SiteState>> sites;
};

/** The armed plan; owned here, published through g_faultPlan. */
std::unique_ptr<ArmedPlan> g_armed;

std::uint64_t
rateThreshold(double rate)
{
    if (rate <= 0.0)
        return 0;
    if (rate >= 1.0)
        return ~std::uint64_t(0);
    return static_cast<std::uint64_t>(
        rate * 18446744073709551616.0 /* 2^64 */);
}

bool
parseRate(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && out >= 0.0 &&
           out <= 1.0;
}

} // namespace

bool
FaultPlan::parse(const std::string &text, std::string &error)
{
    std::vector<FaultSpec> parsed;
    for (const std::string &raw : split(text, ',')) {
        const std::string entry = trim(raw);
        if (entry.empty())
            continue;
        const std::vector<std::string> f = split(entry, ':');
        if (f.size() < 3 || f.size() > 4) {
            error = strfmt("bad fault spec '%s': want "
                           "site:rate:seed[:kind]",
                           entry.c_str());
            return false;
        }
        FaultSpec spec;
        spec.site = f[0];
        if (spec.site.empty()) {
            error = strfmt("bad fault spec '%s': empty site",
                           entry.c_str());
            return false;
        }
        if (!parseRate(f[1], spec.rate)) {
            error = strfmt("bad fault rate '%s' (want [0,1])",
                           f[1].c_str());
            return false;
        }
        if (!parseU64(f[2], spec.seed)) {
            error = strfmt("bad fault seed '%s'", f[2].c_str());
            return false;
        }
        if (f.size() == 4) {
            const std::string &kind = f[3];
            if (kind == "error") {
                spec.kind = FaultKind::Error;
            } else if (kind == "cancel") {
                spec.kind = FaultKind::Cancel;
            } else if (kind.rfind("delay=", 0) == 0) {
                int us = 0;
                if (!parseInt(kind.substr(6), us)) {
                    error = strfmt("bad fault delay '%s'",
                                   kind.c_str());
                    return false;
                }
                spec.kind = FaultKind::Delay;
                spec.delayMicros = us;
            } else {
                error = strfmt("bad fault kind '%s' (want error, "
                               "cancel, or delay=<micros>)",
                               kind.c_str());
                return false;
            }
        }
        parsed.push_back(std::move(spec));
    }
    for (FaultSpec &s : parsed)
        specs_.push_back(std::move(s));
    return true;
}

namespace detail {

std::atomic<const void *> g_faultPlan{nullptr};

void
faultPointSlow(const char *site)
{
    // The plan pointer was published before any service thread
    // started (armFaults requires quiescence), so g_armed is
    // stable for the lifetime of this call.
    ArmedPlan *armed = g_armed.get();
    if (armed == nullptr)
        return;

    SiteState *state = nullptr;
    {
        std::lock_guard<std::mutex> lock(armed->mu);
        std::unique_ptr<SiteState> &slot = armed->sites[site];
        if (slot == nullptr) {
            slot.reset(new SiteState());
            slot->nameHash = fnv1a64(site);
            // First matching spec wins, so explicit sites should
            // precede wildcards in the plan.
            for (const FaultSpec &spec : armed->plan.specs()) {
                if (matches(spec.site, site)) {
                    slot->spec = &spec;
                    slot->threshold = rateThreshold(spec.rate);
                    break;
                }
            }
        }
        state = slot.get();
    }

    const std::uint64_t hit =
        state->hits.fetch_add(1, std::memory_order_relaxed);
    if (state->spec == nullptr)
        return;
    const std::uint64_t draw =
        mix64(state->spec->seed ^ state->nameHash ^ hit);
    if (draw >= state->threshold)
        return;
    state->fired.fetch_add(1, std::memory_order_relaxed);
    switch (state->spec->kind) {
    case FaultKind::Error:
        throw InjectedFault(site);
    case FaultKind::Cancel:
        throw CancelledError(
            strfmt("injected cancel at %s", site));
    case FaultKind::Delay:
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::max(state->spec->delayMicros, 0)));
        return;
    }
}

} // namespace detail

void
armFaults(FaultPlan plan)
{
    detail::g_faultPlan.store(nullptr, std::memory_order_release);
    g_armed.reset(new ArmedPlan());
    g_armed->plan = std::move(plan);
    detail::g_faultPlan.store(g_armed.get(),
                              std::memory_order_release);
}

void
disarmFaults()
{
    detail::g_faultPlan.store(nullptr, std::memory_order_release);
    g_armed.reset();
}

bool
faultsArmed()
{
    return detail::g_faultPlan.load(std::memory_order_acquire) !=
           nullptr;
}

bool
armFaultsFromEnv()
{
    if (faultsArmed())
        return true;
    const char *env = std::getenv("DMS_FAULTS");
    if (env == nullptr || *env == '\0')
        return false;
    FaultPlan plan;
    std::string error;
    if (!plan.parse(env, error)) {
        warn("ignoring DMS_FAULTS: %s", error.c_str());
        return false;
    }
    if (plan.empty())
        return false;
    armFaults(std::move(plan));
    return true;
}

std::vector<FaultSiteStats>
faultStats()
{
    std::vector<FaultSiteStats> out;
    ArmedPlan *armed = g_armed.get();
    if (armed == nullptr || !faultsArmed())
        return out;
    std::lock_guard<std::mutex> lock(armed->mu);
    out.reserve(armed->sites.size());
    for (const auto &kv : armed->sites) {
        FaultSiteStats s;
        s.site = kv.first;
        s.hits = kv.second->hits.load(std::memory_order_relaxed);
        s.fired = kv.second->fired.load(std::memory_order_relaxed);
        out.push_back(std::move(s));
    }
    return out;
}

std::uint64_t
faultsInjected()
{
    std::uint64_t total = 0;
    for (const FaultSiteStats &s : faultStats())
        total += s.fired;
    return total;
}

} // namespace dms
