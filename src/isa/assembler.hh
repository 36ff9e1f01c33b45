/**
 * @file
 * A textual assembler for ffvm, completing the toolchain round trip
 * with the disassembler: programs can be written, stored and loaded
 * as plain text.
 *
 * Syntax (one instruction per line; the disassembler's rendering is
 * valid input):
 *
 *     # comment                     // comment
 *     label:                        — binds to the next instruction
 *     (p3) add r1 = r2, r3  ;;      — qualifying predicate, stop bit
 *     movi r9 = 1234
 *     cmp.lt p1, p2 = r3, 10
 *     ld8 r4 = [r5+8]
 *     st4 [r1-4] = r2
 *     br loop                       — label or @<index>
 *     halt
 *     .poke64 0x1000 42             — initial-memory directives
 *     .pokedouble 0x2000 1.5
 *
 * Immediates accept decimal, 0x hex and (leading 0, as in C) octal,
 * with optional sign, and must fit 64 bits.
 */

#ifndef FF_ISA_ASSEMBLER_HH
#define FF_ISA_ASSEMBLER_HH

#include <string>

#include "isa/program.hh"

namespace ff
{
namespace isa
{

/**
 * Assembles @p source into @p out.
 *
 * @param source assembler text
 * @param name   program name for diagnostics
 * @param out    receives the program on success
 * @return empty string on success, else "line N: <message>"
 */
std::string assemble(const std::string &source, const std::string &name,
                     Program *out);

/** Assembles or dies (for tests and tools with trusted input). */
Program assembleOrDie(const std::string &source,
                      const std::string &name = "asm");

/**
 * Renders @p prog as re-assemblable text: branch targets become
 * generated labels, stop bits become ";;", and the data image is
 * emitted as .poke64 directives. assemble(toAssembly(p)) reproduces
 * p's instruction stream and data exactly.
 */
std::string toAssembly(const Program &prog);

} // namespace isa
} // namespace ff

#endif // FF_ISA_ASSEMBLER_HH
