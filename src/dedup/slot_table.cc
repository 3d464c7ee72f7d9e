/**
 * @file
 * SlotTable implementation.
 */

#include "dedup/slot_table.hh"

#include "common/logging.hh"

namespace dewrite {

LineAddr
SlotTable::realAddr(LineAddr init_addr) const
{
    const SlotRecord *rec = find(init_addr);
    if (!rec || !rec->has(SlotRecord::kRemapped))
        panic("mapping table: realAddr of non-remapped line %llu",
              static_cast<unsigned long long>(init_addr));
    return rec->mapValue;
}

void
SlotTable::remap(LineAddr init_addr, LineAddr real_addr)
{
    SlotRecord &rec = ref(init_addr);
    rec.set(SlotRecord::kRemapped);
    rec.mapValue = real_addr;
}

void
SlotTable::clearRemap(LineAddr init_addr)
{
    SlotRecord &rec = ref(init_addr);
    rec.clear(SlotRecord::kRemapped);
    rec.mapValue = 0;
}

std::uint64_t
SlotTable::hash(LineAddr real_addr) const
{
    const SlotRecord *rec = find(real_addr);
    if (!rec || !rec->has(SlotRecord::kHoldsData))
        panic("inverted hash: hash of empty slot %llu",
              static_cast<unsigned long long>(real_addr));
    return rec->invValue;
}

void
SlotTable::setHash(LineAddr real_addr, std::uint64_t hash)
{
    SlotRecord &rec = ref(real_addr);
    if (!rec.has(SlotRecord::kHoldsData))
        ++dataSlots_;
    rec.set(SlotRecord::kHoldsData);
    rec.invValue = hash;
}

void
SlotTable::clearHash(LineAddr real_addr)
{
    SlotRecord &rec = ref(real_addr);
    if (rec.has(SlotRecord::kHoldsData))
        --dataSlots_;
    rec.clear(SlotRecord::kHoldsData);
    rec.invValue = 0;
}

} // namespace dewrite
