"""Pretium core: admission, schedule adjustment, pricing, user behaviour."""

from .admission import EPS, Contract, RequestAdmission
from .config import PretiumConfig
from .menu import MenuSegment, PriceMenu
from .pretium import PretiumController
from .pricer import PriceComputer
from .request import ByteRequest
from .sam import (ScheduleAdjuster, Transmission, install_plan,
                  transmissions_now)
from .state import NetworkState
from .users import AllOrNothingUser, BestResponseUser, UserModel

__all__ = [
    "AllOrNothingUser", "BestResponseUser", "ByteRequest", "Contract", "EPS",
    "MenuSegment", "NetworkState", "PretiumConfig", "PretiumController",
    "PriceComputer", "PriceMenu", "RequestAdmission", "ScheduleAdjuster",
    "Transmission", "UserModel", "install_plan", "transmissions_now",
]
