#include "core/simple_protocols.hh"

#include <utility>

namespace hmg
{

void
IdealModel::load(const MemAccess &acc, LoadDoneCb done)
{
    // Scope only constrains where loads may hit; idealized caching
    // ignores those constraints entirely.
    MemAccess relaxed = acc;
    relaxed.scope = Scope::None;
    HomeChainModel::load(relaxed, std::move(done));
}

void
IdealModel::acquire(const MemAccess &acc, DoneCb done)
{
    (void)acc;
    ctx_.engine().schedule(1, std::move(done));
}

void
IdealModel::release(const MemAccess &acc, DoneCb done)
{
    (void)acc;
    ctx_.engine().schedule(1, std::move(done));
}

} // namespace hmg
