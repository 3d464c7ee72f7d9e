/**
 * @file
 * HashStore implementation.
 */

#include "dedup/hash_store.hh"

#include "common/logging.hh"

namespace dewrite {

HashStore::ChainView
HashStore::lookup(std::uint64_t hash) const
{
    const std::uint32_t *newest = newest_.find(hash);
    return { this, newest ? *newest : kEnd };
}

void
HashStore::append(std::uint64_t hash, LineAddr real_addr,
                  std::uint8_t reference, const char *op)
{
    if (real_addr >= kSlotLimit)
        panic("hash store: slot %llu is beyond the record range",
              static_cast<unsigned long long>(real_addr));
    if (reference == 0)
        panic("hash store: %s of slot %llu with no references", op,
              static_cast<unsigned long long>(real_addr));
    SlotRecord &rec = slots_.ref(real_addr);
    if (rec.reference != 0)
        panic("hash store: duplicate %s of slot %llu", op,
              static_cast<unsigned long long>(real_addr));
    std::uint32_t &newest = *newest_.tryEmplace(hash, kEnd).first;
    rec.storeHash = hash;
    rec.older = newest;
    rec.reference = reference;
    rec.clear(SlotRecord::kStrongValid);
    newest = static_cast<std::uint32_t>(real_addr + 1);
    ++size_;
}

bool
HashStore::addReference(std::uint64_t hash, LineAddr real_addr)
{
    SlotRecord *rec = live(hash, real_addr);
    if (!rec)
        panic("hash store: addReference on absent record (hash 0x%llx, "
              "slot %llu)",
              static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(real_addr));
    if (rec->reference == kMaxReference) {
        saturationRefusals_.increment();
        return false;
    }
    ++rec->reference;
    return true;
}

bool
HashStore::dropReference(std::uint64_t hash, LineAddr real_addr)
{
    SlotRecord *rec = live(hash, real_addr);
    if (!rec)
        panic("hash store: dropReference on absent record (hash 0x%llx, "
              "slot %llu)",
              static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(real_addr));
    // A saturated count no longer tracks the true reference number,
    // so it is pinned: the record outlives its references rather
    // than risking premature reclamation.
    if (rec->reference == kMaxReference)
        return false;
    if (--rec->reference > 0)
        return false;

    // Unlink the slot; its older neighbours keep their order.
    const std::size_t idx = newest_.findIndex(hash);
    std::uint32_t *link = &newest_.valueAt(idx);
    while (*link != real_addr + 1)
        link = &slots_.ref(*link - 1).older;
    *link = rec->older;
    if (newest_.valueAt(idx) == kEnd)
        newest_.eraseIndex(idx);
    clearRecord(*rec);
    --size_;
    return true;
}

void
HashStore::setStrongFp(std::uint64_t hash, LineAddr real_addr,
                       const StrongFp &fp)
{
    SlotRecord *rec = live(hash, real_addr);
    if (!rec)
        panic("hash store: setStrongFp on absent record (hash 0x%llx, "
              "slot %llu)",
              static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(real_addr));
    strongFps_.ref(real_addr) = fp;
    rec->set(SlotRecord::kStrongValid);
}

void
HashStore::clear()
{
    // A slot's store fields are nonzero only while it is chained, so
    // walking the chains reaches every record.
    // dewrite-lint: allow(unsorted-iteration) records reset independently
    newest_.forEach([&](std::uint64_t, std::uint32_t newest) {
        for (std::uint32_t link = newest; link != kEnd;) {
            SlotRecord &rec = slots_.ref(link - 1);
            link = rec.older;
            clearRecord(rec);
        }
    });
    newest_ = FlatMap<std::uint64_t, std::uint32_t>();
    strongFps_ = PagedArray<StrongFp>();
    size_ = 0;
    saturationRefusals_.reset();
}

std::size_t
HashStore::collidingEntries() const
{
    std::size_t colliding = 0;
    // dewrite-lint: allow(unsorted-iteration) commutative sum
    newest_.forEach([&](std::uint64_t, std::uint32_t newest) {
        const std::size_t length = ChainView(this, newest).size();
        if (length > 1)
            colliding += length;
    });
    return colliding;
}

std::size_t
HashStore::maxChainLength() const
{
    std::size_t longest = 0;
    // dewrite-lint: allow(unsorted-iteration) commutative max
    newest_.forEach([&](std::uint64_t, std::uint32_t newest) {
        longest = std::max(longest, ChainView(this, newest).size());
    });
    return longest;
}

} // namespace dewrite
