/**
 * @file
 * Reducer factory and technique names.
 */

#include "controller/bitlevel/bitflip.hh"

#include "common/logging.hh"
#include "controller/bitlevel/dcw.hh"
#include "controller/bitlevel/deuce.hh"
#include "controller/bitlevel/fnw.hh"
#include "controller/bitlevel/secret.hh"

namespace dewrite {

std::string
bitTechniqueName(BitTechnique technique)
{
    switch (technique) {
      case BitTechnique::None:
        return "Full";
      case BitTechnique::Dcw:
        return "DCW";
      case BitTechnique::Fnw:
        return "FNW";
      case BitTechnique::Deuce:
        return "DEUCE";
      case BitTechnique::Secret:
        return "SECRET";
    }
    panic("bad bit technique");
}

std::unique_ptr<BitLevelReducer>
makeReducer(BitTechnique technique)
{
    switch (technique) {
      case BitTechnique::None:
        return nullptr;
      case BitTechnique::Dcw:
        return std::make_unique<DcwReducer>();
      case BitTechnique::Fnw:
        return std::make_unique<FnwReducer>();
      case BitTechnique::Deuce:
        return std::make_unique<DeuceReducer>();
      case BitTechnique::Secret:
        return std::make_unique<SecretReducer>();
    }
    panic("bad bit technique");
}

} // namespace dewrite
