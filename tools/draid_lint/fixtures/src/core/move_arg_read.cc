// Fixture: calls that move a name in one argument and read it in another,
// so the read may see the moved-from object, next to calls that do not.
struct Buf
{
    unsigned long size() const;
};

struct Cpu
{
    template <typename F> void execute(unsigned long bytes, F fn);
};

void consume(Buf b, unsigned long n);
template <typename F> void defer(Buf b, F fn);

void
plant(Cpu &cpu, Buf fix, Buf data)
{
    cpu.execute(fix.size(), [fix = std::move(fix)]() {});
    consume(std::move(data), data.size());
}

void
clean(Cpu &cpu, Buf fix, Buf data, Buf other)
{
    const unsigned long n = fix.size();
    cpu.execute(n, [fix = std::move(fix)]() { consume(fix, fix.size()); });
    consume(std::move(data), other.size());
    // A move inside a lambda body runs later, not at the call.
    defer(other, [&other]() { consume(std::move(other), 0); });
}
