/**
 * @file
 * Environment helpers implementation — the only std::getenv call sites
 * in the tree (enforced by dewrite-lint's env-validation rule).
 */

#include "common/env.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"

namespace dewrite {

const char *
envRaw(const char *name)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): knobs are read once at
    // startup, before any worker thread exists; nothing calls setenv
    // concurrently (tests set knobs from their single driver thread).
    return std::getenv(name);
}

bool
envFlag(const char *name, bool fallback)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): see envRaw above.
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    if (std::strcmp(value, "0") == 0)
        return false;
    if (std::strcmp(value, "1") == 0)
        return true;
    fatal("%s=\"%s\" is not 0 or 1", name, value);
}

std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t min,
        std::uint64_t max)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): see envRaw above.
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-')
        fatal("%s=\"%s\" is not a non-negative integer", name, value);
    if (errno == ERANGE || parsed < min || parsed > max) {
        fatal("%s=\"%s\" out of range (%llu..%llu)", name, value,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(max));
    }
    return parsed;
}

std::size_t
envChoice(const char *name, std::size_t fallback,
          const char *const *names, std::size_t count)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): see envRaw above.
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    for (std::size_t i = 0; i < count; ++i) {
        if (std::strcmp(value, names[i]) == 0)
            return i;
    }
    std::string accepted;
    for (std::size_t i = 0; i < count; ++i) {
        if (i > 0)
            accepted += ", ";
        accepted += names[i];
    }
    fatal("%s=\"%s\" is not one of: %s", name, value, accepted.c_str());
}

const std::vector<const char *> &
knownKnobs()
{
    // Keep sorted and in lockstep with KNOWN_KNOBS in
    // tools/dewrite_lint.py (the lint cross-checks this list).
    static const std::vector<const char *> knobs = {
        "DEWRITE_AUDIT",
        "DEWRITE_AUDIT_EPOCH",
        "DEWRITE_DETECT",
        "DEWRITE_DETECT_EPOCH",
        "DEWRITE_EVENTS",
        "DEWRITE_LOG",
        "DEWRITE_SHARDS",
        "DEWRITE_STAGE_PROFILE",
        "DEWRITE_TELEMETRY",
        "DEWRITE_TELEMETRY_EVERY",
        "DEWRITE_THREADS",
    };
    return knobs;
}

} // namespace dewrite
