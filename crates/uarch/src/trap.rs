//! Architectural exceptions and interrupts.

use serde::{Deserialize, Serialize};

use teesec_isa::priv_level::PrivLevel;

/// A synchronous exception, with its trap value payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Exception {
    /// Instruction address misaligned.
    InstMisaligned(u64),
    /// Instruction access fault (PMP denial on fetch).
    InstAccessFault(u64),
    /// Illegal instruction (payload: the instruction word).
    IllegalInstruction(u32),
    /// Breakpoint (`ebreak`).
    Breakpoint(u64),
    /// Load address misaligned.
    LoadMisaligned(u64),
    /// Load access fault (PMP denial).
    LoadAccessFault(u64),
    /// Store address misaligned.
    StoreMisaligned(u64),
    /// Store access fault (PMP denial).
    StoreAccessFault(u64),
    /// Environment call from the given privilege level.
    Ecall(PrivLevel),
    /// Instruction page fault.
    InstPageFault(u64),
    /// Load page fault.
    LoadPageFault(u64),
    /// Store page fault.
    StorePageFault(u64),
}

impl Exception {
    /// The standard `mcause` encoding.
    pub fn cause(self) -> u64 {
        match self {
            Exception::InstMisaligned(_) => 0,
            Exception::InstAccessFault(_) => 1,
            Exception::IllegalInstruction(_) => 2,
            Exception::Breakpoint(_) => 3,
            Exception::LoadMisaligned(_) => 4,
            Exception::LoadAccessFault(_) => 5,
            Exception::StoreMisaligned(_) => 6,
            Exception::StoreAccessFault(_) => 7,
            Exception::Ecall(PrivLevel::User) => 8,
            Exception::Ecall(PrivLevel::Supervisor) => 9,
            Exception::Ecall(PrivLevel::Machine) => 11,
            Exception::InstPageFault(_) => 12,
            Exception::LoadPageFault(_) => 13,
            Exception::StorePageFault(_) => 15,
        }
    }

    /// The `mtval` payload.
    pub fn tval(self) -> u64 {
        match self {
            Exception::InstMisaligned(a)
            | Exception::InstAccessFault(a)
            | Exception::Breakpoint(a)
            | Exception::LoadMisaligned(a)
            | Exception::LoadAccessFault(a)
            | Exception::StoreMisaligned(a)
            | Exception::StoreAccessFault(a)
            | Exception::InstPageFault(a)
            | Exception::LoadPageFault(a)
            | Exception::StorePageFault(a) => a,
            Exception::IllegalInstruction(w) => w as u64,
            Exception::Ecall(_) => 0,
        }
    }

    /// `true` for access faults (the PMP-denial class TEESec provokes).
    pub fn is_access_fault(self) -> bool {
        matches!(
            self,
            Exception::InstAccessFault(_)
                | Exception::LoadAccessFault(_)
                | Exception::StoreAccessFault(_)
        )
    }
}

/// An asynchronous interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interrupt {
    /// Machine software interrupt.
    MachineSoftware,
    /// Machine timer interrupt.
    MachineTimer,
    /// Machine external interrupt.
    MachineExternal,
}

impl Interrupt {
    /// The interrupt number (bit position in `mip`/`mie`).
    pub const fn number(self) -> u64 {
        match self {
            Interrupt::MachineSoftware => 3,
            Interrupt::MachineTimer => 7,
            Interrupt::MachineExternal => 11,
        }
    }

    /// The `mcause` encoding (interrupt bit set).
    pub fn cause(self) -> u64 {
        (1 << 63) | self.number()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_encodings_match_spec() {
        assert_eq!(Exception::IllegalInstruction(0).cause(), 2);
        assert_eq!(Exception::LoadAccessFault(0).cause(), 5);
        assert_eq!(Exception::Ecall(PrivLevel::Supervisor).cause(), 9);
        assert_eq!(Exception::Ecall(PrivLevel::User).cause(), 8);
        assert_eq!(Exception::LoadPageFault(0).cause(), 13);
        assert_eq!(Interrupt::MachineExternal.cause(), (1 << 63) | 11);
    }

    #[test]
    fn tval_carries_fault_address() {
        assert_eq!(Exception::LoadAccessFault(0x8000_1234).tval(), 0x8000_1234);
        assert_eq!(Exception::IllegalInstruction(0xDEAD).tval(), 0xDEAD);
        assert_eq!(Exception::Ecall(PrivLevel::Machine).tval(), 0);
    }

    #[test]
    fn access_fault_classification() {
        assert!(Exception::LoadAccessFault(0).is_access_fault());
        assert!(Exception::StoreAccessFault(0).is_access_fault());
        assert!(!Exception::LoadPageFault(0).is_access_fault());
        assert!(!Exception::Ecall(PrivLevel::User).is_access_fault());
    }
}
