#include "common/stats.hh"

#include <sstream>

#include "common/log.hh"

namespace hmg
{

void
StatRecorder::record(const std::string &name, double value)
{
    if (!stats_.emplace(name, value).second)
        hmg_panic("stat '%s' recorded twice", name.c_str());
}

void
StatRecorder::record(const std::string &prefix, const StatRecorder &part)
{
    for (const auto &[name, value] : part.stats_)
        record(prefix + "." + name, value);
}

void
StatRecorder::add(const StatRecorder &part)
{
    for (const auto &[name, value] : part.stats_)
        stats_[name] += value;
}

double
StatRecorder::get(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? 0.0 : it->second;
}

std::string
StatRecorder::toString() const
{
    std::ostringstream os;
    for (const auto &[name, value] : stats_)
        os << name << " " << value << "\n";
    return os.str();
}

} // namespace hmg
