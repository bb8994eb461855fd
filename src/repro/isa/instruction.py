"""Static instruction and program containers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ProgramError
from repro.isa.opcodes import (
    ALU_SEMANTICS,
    BRANCH_SEMANTICS,
    IMMEDIATE_OPS,
    Op,
    OpClass,
)
from repro.isa.registers import NUM_ARCH_REGS


@dataclass(frozen=True)
class StaticInst:
    """One static instruction.

    Fields not used by an opcode are ``None``.  ``target`` is the static PC
    of a taken branch or jump.  ``annotation`` is a free-form label the
    workload generators use to mark instructions of interest (e.g. which
    source-level statement a load corresponds to).
    """

    pc: int
    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[int] = None
    annotation: str = ""

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        op = self.op
        cls = op.op_class
        if cls in (OpClass.ALU, OpClass.MUL):
            if self.rd is None:
                raise ProgramError(f"{op.value} at pc={self.pc} needs a destination")
            if op is Op.LI:
                if self.imm is None:
                    raise ProgramError(f"li at pc={self.pc} needs an immediate")
            elif self.rs1 is None:
                raise ProgramError(f"{op.value} at pc={self.pc} needs rs1")
            if op in IMMEDIATE_OPS and op is not Op.LI and self.imm is None:
                raise ProgramError(f"{op.value} at pc={self.pc} needs an immediate")
            if op not in IMMEDIATE_OPS and op is not Op.MOV and self.rs2 is None:
                raise ProgramError(f"{op.value} at pc={self.pc} needs rs2")
        elif cls is OpClass.LOAD:
            if self.rd is None or self.rs1 is None:
                raise ProgramError(f"ld at pc={self.pc} needs rd and a base register")
        elif cls is OpClass.STORE:
            if self.rs1 is None or self.rs2 is None:
                raise ProgramError(f"st at pc={self.pc} needs base and data registers")
        elif cls is OpClass.BRANCH:
            if self.rs1 is None or self.target is None:
                raise ProgramError(f"{op.value} at pc={self.pc} needs rs1 and a target")
        elif cls is OpClass.JUMP:
            if self.target is None:
                raise ProgramError(f"jmp at pc={self.pc} needs a target")
        for reg in (self.rd, self.rs1, self.rs2):
            if reg is not None and not 0 <= reg < NUM_ARCH_REGS:
                raise ProgramError(f"bad register {reg} at pc={self.pc}")

    @property
    def sources(self) -> Tuple[int, ...]:
        """Architectural source registers read by this instruction."""
        op = self.op
        if op is Op.LI or op.op_class in (OpClass.NOP, OpClass.HALT, OpClass.JUMP):
            return ()
        regs: List[int] = []
        if self.rs1 is not None:
            regs.append(self.rs1)
        if self.rs2 is not None and op not in IMMEDIATE_OPS and op is not Op.MOV:
            regs.append(self.rs2)
        return tuple(regs)

    @property
    def dest(self) -> Optional[int]:
        """Architectural destination register, or ``None``."""
        return self.rd if self.op.writes_register else None

    def evaluate_alu(self, a: int, b: int) -> int:
        """Apply ALU/MUL semantics to resolved operand values."""
        return ALU_SEMANTICS[self.op](a, b)

    def evaluate_branch(self, a: int, b: int) -> bool:
        """Apply branch semantics to resolved operand values."""
        return BRANCH_SEMANTICS[self.op](a, b)

    def __str__(self) -> str:
        parts = [f"{self.pc:5d}: {self.op.value}"]
        if self.rd is not None:
            parts.append(f"r{self.rd}")
        if self.rs1 is not None:
            parts.append(f"r{self.rs1}")
        if self.rs2 is not None:
            parts.append(f"r{self.rs2}")
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"->{self.target}")
        text = " ".join(parts)
        if self.annotation:
            text += f"  ; {self.annotation}"
        return text


@dataclass
class Program:
    """A complete program: code, initial data image, and entry point."""

    name: str
    instructions: List[StaticInst]
    data: Dict[int, int] = field(default_factory=dict)
    entry: int = 0
    #: Initial architectural register values (register -> value).
    initial_regs: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for expected_pc, inst in enumerate(self.instructions):
            if inst.pc != expected_pc:
                raise ProgramError(
                    f"instruction pc mismatch: {inst.pc} at index {expected_pc}"
                )
            if inst.target is not None and not 0 <= inst.target < len(
                self.instructions
            ):
                raise ProgramError(
                    f"branch target {inst.target} out of range at pc={inst.pc}"
                )
        if not 0 <= self.entry < len(self.instructions):
            raise ProgramError(f"entry point {self.entry} out of range")

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> StaticInst:
        return self.instructions[pc]

    def __iter__(self) -> Iterator[StaticInst]:
        return iter(self.instructions)

    def fingerprint(self) -> str:
        """SHA-256 of the program *content*: code, data image, entry, and
        initial registers (the name is deliberately excluded).

        This is the workload identity caches key on, so two different
        programs registered under the same benchmark name can never alias,
        and identical programs under different names can share work.  The
        digest is memoized; programs are treated as immutable once built.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            hasher = hashlib.sha256()
            hasher.update(f"entry:{self.entry};".encode())
            for inst in self.instructions:
                hasher.update(
                    (
                        f"{inst.pc},{inst.op.value},{inst.rd},{inst.rs1},"
                        f"{inst.rs2},{inst.imm},{inst.target},"
                        f"{inst.annotation};"
                    ).encode()
                )
            for addr in sorted(self.data):
                hasher.update(f"d{addr}:{self.data[addr]};".encode())
            for reg in sorted(self.initial_regs):
                hasher.update(f"r{reg}:{self.initial_regs[reg]};".encode())
            cached = hasher.hexdigest()
            self._fingerprint = cached
        return cached

    def listing(self) -> str:
        """A human-readable assembly listing."""
        return "\n".join(str(inst) for inst in self.instructions)
