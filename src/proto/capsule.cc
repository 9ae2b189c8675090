#include "proto/capsule.h"

#include <cstring>

namespace draid::proto {

const char *
toString(Opcode op)
{
    switch (op) {
      case Opcode::kRead: return "Read";
      case Opcode::kWrite: return "Write";
      case Opcode::kPartialWrite: return "PartialWrite";
      case Opcode::kParity: return "Parity";
      case Opcode::kReconstruction: return "Reconstruction";
      case Opcode::kPeer: return "Peer";
      case Opcode::kCompletion: return "Completion";
    }
    return "Unknown";
}

const char *
toString(Subtype st)
{
    switch (st) {
      case Subtype::kNone: return "None";
      case Subtype::kRmw: return "RMW";
      case Subtype::kRwWrite: return "RW_WRITE";
      case Subtype::kRwRead: return "RW_READ";
      case Subtype::kNoRead: return "NoRead";
      case Subtype::kAlsoRead: return "AlsoRead";
      case Subtype::kDegraded: return "Degraded";
      case Subtype::kNoReadQ: return "NoReadQ";
      case Subtype::kRawQ: return "RawQ";
    }
    return "Unknown";
}

const char *
toString(Status st)
{
    switch (st) {
      case Status::kSuccess: return "Success";
      case Status::kFailed: return "Failed";
      case Status::kTimedOut: return "TimedOut";
    }
    return "Unknown";
}

namespace {

constexpr std::uint32_t kMagic = 0x64524149; // "dRAI"
constexpr std::uint32_t kFixedSize = 64;     // header + fixed fields
constexpr std::uint32_t kSgeSize = 12;

void
put8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
put16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool
    read8(std::uint8_t &v)
    {
        if (pos_ + 1 > size_)
            return false;
        v = data_[pos_++];
        return true;
    }

    bool
    read16(std::uint16_t &v)
    {
        if (pos_ + 2 > size_)
            return false;
        v = static_cast<std::uint16_t>(data_[pos_] |
                                       (data_[pos_ + 1] << 8));
        pos_ += 2;
        return true;
    }

    bool
    read32(std::uint32_t &v)
    {
        if (pos_ + 4 > size_)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return true;
    }

    bool
    read64(std::uint64_t &v)
    {
        if (pos_ + 8 > size_)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return true;
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace

std::uint32_t
Capsule::wireSize() const
{
    return kFixedSize +
           kSgeSize * static_cast<std::uint32_t>(sgList.size() +
                                                 sgList2.size());
}

std::vector<std::uint8_t>
Capsule::encode() const
{
    std::vector<std::uint8_t> out;
    out.reserve(wireSize());
    put32(out, kMagic);
    put64(out, commandId);
    put8(out, static_cast<std::uint8_t>(opcode));
    put8(out, static_cast<std::uint8_t>(subtype));
    put8(out, static_cast<std::uint8_t>(status));
    put8(out, 0); // reserved
    put32(out, nsid);
    put64(out, offset);
    put32(out, length);
    put32(out, fwdOffset);
    put32(out, fwdLength);
    put32(out, nextDest);
    put32(out, nextDest2);
    put16(out, waitNum);
    put16(out, dataIdx);
    put64(out, stripe);
    put16(out, static_cast<std::uint16_t>(sgList.size()));
    put16(out, static_cast<std::uint16_t>(sgList2.size()));
    for (const auto *list : {&sgList, &sgList2}) {
        for (const auto &sge : *list) {
            put64(out, sge.addr);
            put32(out, sge.length);
        }
    }
    return out;
}

std::optional<Capsule>
Capsule::decode(const std::uint8_t *data, std::size_t size)
{
    Reader r(data, size);
    std::uint32_t magic = 0;
    if (!r.read32(magic) || magic != kMagic)
        return std::nullopt;

    Capsule c;
    std::uint8_t op = 0, st = 0, status = 0, reserved = 0;
    std::uint16_t num_sge = 0, num_sge2 = 0;
    if (!r.read64(c.commandId) || !r.read8(op) || !r.read8(st) ||
        !r.read8(status) || !r.read8(reserved) || !r.read32(c.nsid) ||
        !r.read64(c.offset) || !r.read32(c.length) ||
        !r.read32(c.fwdOffset) || !r.read32(c.fwdLength) ||
        !r.read32(c.nextDest) || !r.read32(c.nextDest2) ||
        !r.read16(c.waitNum) || !r.read16(c.dataIdx) ||
        !r.read64(c.stripe) || !r.read16(num_sge) || !r.read16(num_sge2)) {
        return std::nullopt;
    }
    c.opcode = static_cast<Opcode>(op);
    c.subtype = static_cast<Subtype>(st);
    c.status = static_cast<Status>(status);
    for (std::uint16_t i = 0; i < num_sge + num_sge2; ++i) {
        Sge sge;
        if (!r.read64(sge.addr) || !r.read32(sge.length))
            return std::nullopt;
        if (i < num_sge)
            c.sgList.push_back(sge);
        else
            c.sgList2.push_back(sge);
    }
    return c;
}

} // namespace draid::proto
