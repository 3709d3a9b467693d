#include "dns/message.h"

#include <algorithm>
#include <sstream>

#include "dns/wire.h"

namespace govdns::dns {

std::string_view RcodeName(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError:
      return "NOERROR";
    case Rcode::kFormErr:
      return "FORMERR";
    case Rcode::kServFail:
      return "SERVFAIL";
    case Rcode::kNxDomain:
      return "NXDOMAIN";
    case Rcode::kNotImp:
      return "NOTIMP";
    case Rcode::kRefused:
      return "REFUSED";
  }
  return "RCODE?";
}

std::vector<uint8_t> Message::Encode() const {
  WireWriter w;
  w.WriteU16(header.id);
  uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<uint16_t>(header.opcode) << 11;
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  flags |= static_cast<uint16_t>(header.rcode) & 0x0F;
  w.WriteU16(flags);
  w.WriteU16(static_cast<uint16_t>(questions.size()));
  w.WriteU16(static_cast<uint16_t>(answers.size()));
  w.WriteU16(static_cast<uint16_t>(authority.size()));
  w.WriteU16(static_cast<uint16_t>(additional.size()));
  for (const Question& q : questions) {
    w.WriteName(q.name);
    w.WriteU16(static_cast<uint16_t>(q.type));
    w.WriteU16(static_cast<uint16_t>(q.klass));
  }
  for (const auto* section : {&answers, &authority, &additional}) {
    for (const ResourceRecord& rr : *section) w.WriteRecord(rr);
  }
  return w.TakeBuffer();
}

util::StatusOr<Message> Message::Decode(const std::vector<uint8_t>& wire) {
  return Decode(wire.data(), wire.size());
}

util::StatusOr<Message> Message::Decode(const uint8_t* data, size_t len) {
  WireReader r(data, len);
  Message msg;
  auto id = r.ReadU16();
  if (!id.ok()) return id.status();
  msg.header.id = *id;
  auto flags_or = r.ReadU16();
  if (!flags_or.ok()) return flags_or.status();
  uint16_t flags = *flags_or;
  msg.header.qr = flags & 0x8000;
  uint8_t opcode = (flags >> 11) & 0x0F;
  if (opcode != 0) return util::ParseError("unsupported opcode");
  msg.header.opcode = Opcode::kQuery;
  msg.header.aa = flags & 0x0400;
  msg.header.tc = flags & 0x0200;
  msg.header.rd = flags & 0x0100;
  msg.header.ra = flags & 0x0080;
  msg.header.rcode = static_cast<Rcode>(flags & 0x0F);

  uint16_t counts[4];
  for (auto& count : counts) {
    auto v = r.ReadU16();
    if (!v.ok()) return v.status();
    count = *v;
  }
  // Reserve from the counts, capped by what the remaining bytes could hold
  // (a question takes >= 5 octets, a record >= 11), so a forged count
  // cannot make a short datagram allocate.
  msg.questions.reserve(std::min<size_t>(counts[0], r.remaining() / 5));
  for (uint16_t i = 0; i < counts[0]; ++i) {
    Question q;
    auto name = r.ReadName();
    if (!name.ok()) return name.status();
    q.name = *std::move(name);
    auto type = r.ReadU16();
    if (!type.ok()) return type.status();
    q.type = static_cast<RRType>(*type);
    auto klass = r.ReadU16();
    if (!klass.ok()) return klass.status();
    if (*klass != static_cast<uint16_t>(RRClass::kIN)) {
      return util::ParseError("unsupported question class");
    }
    msg.questions.push_back(std::move(q));
  }
  std::vector<ResourceRecord>* sections[] = {&msg.answers, &msg.authority,
                                             &msg.additional};
  for (int s = 0; s < 3; ++s) {
    sections[s]->reserve(std::min<size_t>(counts[s + 1], r.remaining() / 11));
    for (uint16_t i = 0; i < counts[s + 1]; ++i) {
      auto rr = r.ReadRecord();
      if (!rr.ok()) return rr.status();
      sections[s]->push_back(*std::move(rr));
    }
  }
  if (!r.AtEnd()) return util::ParseError("trailing bytes in message");
  return msg;
}

bool Message::IsReferral() const {
  if (!header.qr || header.aa) return false;
  if (header.rcode != Rcode::kNoError) return false;
  if (!answers.empty()) return false;
  for (const ResourceRecord& rr : authority) {
    if (rr.type() == RRType::kNS) return true;
  }
  return false;
}

std::string Message::ToString() const {
  std::ostringstream os;
  os << ";; id " << header.id << " " << RcodeName(header.rcode)
     << (header.qr ? " qr" : "") << (header.aa ? " aa" : "")
     << (header.tc ? " tc" : "") << "\n";
  for (const Question& q : questions) {
    os << ";; question: " << q.name << " " << RRTypeName(q.type) << "\n";
  }
  auto dump = [&](const char* label, const std::vector<ResourceRecord>& rrs) {
    for (const ResourceRecord& rr : rrs) {
      os << ";; " << label << ": " << rr.ToString() << "\n";
    }
  };
  dump("answer", answers);
  dump("authority", authority);
  dump("additional", additional);
  return os.str();
}

Message MakeQuery(uint16_t id, const Name& name, RRType type) {
  Message msg;
  msg.header.id = id;
  msg.header.rd = false;  // iterative measurement client: no recursion
  msg.questions.push_back({name, type, RRClass::kIN});
  return msg;
}

Message MakeResponse(const Message& query, Rcode rcode) {
  Message msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.rd = query.header.rd;
  msg.header.rcode = rcode;
  msg.questions = query.questions;
  return msg;
}

}  // namespace govdns::dns
