/**
 * @file
 * Statistics, metric/check bookkeeping, the output digest, the span
 * store and the machine fingerprint.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>

#include "perfbench.hpp"
#include "rcoal/sim/config.hpp"

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

std::string
summarize(const std::vector<double> &values, const char *unit)
{
    char buf[160];
    int len = std::snprintf(buf, sizeof buf, "median %.4g %s", median(values),
                            unit);
    double tail = 0.0;
    for (const double p : {99.9, 99.0, 90.0}) {
        if (static_cast<double>(values.size()) * (1.0 - p / 100.0) >= 10.0) {
            tail = p;
            break;
        }
    }
    if (tail > 0.0) {
        len += std::snprintf(buf + len, sizeof buf - len, ", p%g %.4g %s",
                             tail, percentile(values, tail), unit);
    }
    std::snprintf(buf + len, sizeof buf - len, ", n=%zu", values.size());
    return buf;
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    for (Entry &e : items) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    items.push_back(Entry{name, value, unit});
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attemptedCount;
    if (ok)
        return;
    ++failedCount;
    if (failedCount <= 10)
        std::printf("CHECK FAILED: %s\n", what.c_str());
}

void
Digest::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state ^= p[i];
        state *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(state));
    return buf;
}

std::int32_t
SpanStore::open(const std::string &name, std::int64_t start_ns)
{
    const auto index = static_cast<std::int32_t>(all.size());
    all.push_back(Span{name, start_ns, 0,
                       stack.empty() ? -1 : stack.back(), {}});
    stack.push_back(index);
    return index;
}

void
SpanStore::close(std::int32_t index, std::int64_t end_ns, std::string args)
{
    if (stack.empty() || stack.back() != index) {
        std::fprintf(stderr, "perfbench: span %d closed out of order\n",
                     index);
        std::abort();
    }
    stack.pop_back();
    Span &span = all[static_cast<std::size_t>(index)];
    span.durNs = end_ns - span.startNs;
    span.args = std::move(args);
}

void
SpanStore::leaf(const std::string &name, std::int64_t start_ns,
                std::int64_t end_ns, std::string args)
{
    all.push_back(Span{name, start_ns, end_ns - start_ns,
                       stack.empty() ? -1 : stack.back(),
                       std::move(args)});
}

std::vector<std::pair<std::string, double>>
SpanStore::selfSeconds() const
{
    std::vector<std::int64_t> child_ns(all.size(), 0);
    for (const Span &span : all) {
        if (span.parent >= 0)
            child_ns[static_cast<std::size_t>(span.parent)] += span.durNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
        self[all[i].name] +=
            static_cast<double>(all[i].durNs - child_ns[i]) * 1e-9;
    }
    return {self.begin(), self.end()};
}

namespace {

/** JSON string literal body (quotes and backslashes escaped). */
std::string
escaped(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
SpanStore::writeChromeTrace(const std::string &path,
                            const std::string &metadata) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::int64_t origin = all.empty() ? 0 : all.front().startNs;
    out << "{\"displayTimeUnit\":\"ns\",\"metadata\":" << metadata
        << ",\"traceEvents\":[";
    char buf[128];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      static_cast<double>(span.startNs - origin) * 1e-3,
                      static_cast<double>(span.durNs) * 1e-3);
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
            << escaped(span.name) << "\"," << buf << ",\"args\":{\"id\":"
            << i << ",\"parent\":" << span.parent;
        if (!span.args.empty())
            out << "," << span.args;
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

std::string
machineFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                cpu = line.substr(colon + 1);
                cpu.erase(0, cpu.find_first_not_of(' '));
            }
            break;
        }
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"cpu\":\"%s\",\"nproc\":%ld,\"compiler\":\"%s\","
                  "\"build_type\":\"%s\",\"rcoal_trace\":%d,"
                  "\"workers\":%u,\"cycle_skipping\":%s}",
                  escaped(cpu).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
#if defined(__clang__)
                  "clang " __clang_version__,
#elif defined(__GNUC__)
                  "gcc " __VERSION__,
#else
                  "unknown",
#endif
                  PERFBENCH_BUILD_TYPE, RCOAL_TRACE_ENABLED ? 1 : 0,
                  kWorkers,
                  rcoal::sim::resolveCycleSkipping(true) ? "true" : "false");
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
